"""One memo policy: every process-wide memo is a Memo, which starts over
once it holds LIMIT entries or on clear(), and counts its restarts.
remembered keys each chain argument on its labels too: label variants
compare equal, but results carry their labels. Three memos only make
equal results one object (amalgamation._certificate, morphisms._shared,
classification._witness); each stays for the memory it saves, measured
where it is defined. chain._INTERNED and decomposition._INTERNED are not
memos: they give chains and signatures their identity
(DecompositionSignature's == is identity); nothing clears them."""

from functools import partial, update_wrapper

LIMIT = 1 << 16
_MEMOS: list = []


class Memo(dict):
    """A dict with parts: read it with get(), store with put(). The parts
    start over with the memo, and only with it; restarts counts how often
    they did, so find_amalgam can tell that a CandidatePool's bits are stale."""

    __slots__ = ("tables", "restarts")

    def __init__(self, *parts: dict):
        self.tables, self.restarts = (self, *parts), 0
        _MEMOS.append(self)

    def make_room(self) -> None:
        if max(map(len, self.tables)) >= LIMIT:
            self.clear()

    def put(self, key, value):
        self.make_room()
        self[key] = value
        return value

    def clear(self) -> None:
        for table in self.tables:
            dict.clear(table)
        self.restarts += 1


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
