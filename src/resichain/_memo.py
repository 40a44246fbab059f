"""One memo policy: every process-wide memo is a Memo, which starts over
once it holds LIMIT entries or on clear(). remembered keys each chain
argument on its labels too: label variants compare equal, but results
carry their labels. Three memos only make equal results one object
(amalgamation._certificate, morphisms._shared, classification._witness);
each stays for the memory it saves, measured where it is defined.
chain._INTERNED and decomposition._INTERNED are not memos: they give
chains and signatures their identity (DecompositionSignature's == is
identity), and nothing clears them."""

from functools import partial, update_wrapper

LIMIT = 1 << 16
_MEMOS: list = []


class Memo(dict):
    """A dict: read it with get(), store with put(), which starts it over
    first once it holds LIMIT entries."""

    __slots__ = ()

    def __init__(self):
        _MEMOS.append(self)

    def put(self, key, value):
        if len(self) >= LIMIT:
            self.clear()
        self[key] = value
        return value


def remembered(fn=None, *, chains: int = 0):
    """fn with its results kept in fn.memo; its first chains (0, 1 or 3) arguments are chains."""
    if fn is None:
        return partial(remembered, chains=chains)
    memo = Memo()

    def call(*args):
        # spelled out: a loop over the chains would cost more than the lookup
        key = args if not chains else (args, args[0].labels) if chains == 1 else (
            args, args[0].labels, args[1].labels, args[2].labels)
        value = memo.get(key, memo)
        if value is memo:
            return memo.put(key, fn(*args))
        return value

    call.memo = memo
    return update_wrapper(call, fn)


def clear() -> None:
    for memo in _MEMOS:
        memo.clear()
