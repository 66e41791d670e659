"""DET005 fixture: a class that iterates its own set-typed attributes.

Linted as text by ``tests/lint/test_rules.py`` (never imported). The
first method is ``MachineBGPSpeaker.withdraw_all`` as it stood when its
order followed ``PYTHONHASHSEED``; each ``# expect`` line must be
reported and no other.
"""

from dataclasses import dataclass, field


class Speaker:
    def __init__(self, clouds):
        self.clouds = list(clouds)
        self._advertised: set[str] = set()
        self._seen = frozenset(clouds)
        self._order = []

    def withdraw_all(self):
        for prefix in list(self._advertised):  # expect
            self.withdraw(prefix)

    def export(self):
        for prefix in self._seen:  # expect
            yield prefix
        return tuple(self._advertised)  # expect

    def table(self):
        return {prefix: 0 for prefix in self._advertised}  # expect

    def withdraw_all_fixed(self):
        for prefix in self.clouds:
            self.withdraw(prefix)
        for prefix in sorted(self._advertised):
            self.withdraw(prefix)
        return len(self._advertised), list(self._order)

    def withdraw(self, prefix):
        if prefix in self._advertised:
            self._advertised.discard(prefix)


@dataclass
class Cloud:
    advertising: set[str] = field(default_factory=set)
    pops: list[str] = field(default_factory=list)

    def sizes(self):
        return [pop for pop in self.advertising]  # expect

    def ordered(self):
        return [pop for pop in self.pops]


class Other:
    """Same attribute name, but nothing here says it is a set."""

    def __init__(self, advertised):
        self._advertised = advertised

    def names(self):
        return list(self._advertised)
