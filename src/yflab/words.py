"""Words over {1,2} and the Young-Fibonacci graph structure.

A vertex of the Young-Fibonacci lattice is a finite word over the alphabet
{1, 2}, stored left to right exactly as printed.  The *rank* of a word is
its digit sum, the *length* its digit count.  "Suffix" always means the
rightmost digits.

Edges up from a word x:
  * replace the leftmost 1 of x with a 2 (if x contains a 1);
  * insert a 1 at any position up to and including the position of the
    leftmost 1; if x has no 1, at any of the length+1 positions.

Edges down are the inverses:
  * turn any 2 of the maximal leading run of 2s into a 1;
  * delete the leftmost 1 (if any).

The words of one rank have one generator, iter_level, which steps from each
word to the next in lexicographic order (1 before 2); enumerate_level holds
its words in one cached Level per rank.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Iterator, Optional


class YFWord(tuple):
    """An immutable word over {1,2}; behaves as a tuple of ints."""

    __slots__ = ()

    def __new__(cls, digits=()) -> "YFWord":
        digits = tuple(digits)
        if digits.count(1) + digits.count(2) != len(digits):  # == per digit, as `in (1, 2)`
            raise ValueError(f"digits must be 1 or 2, got {digits!r}")
        return tuple.__new__(cls, digits)

    @classmethod
    def from_text(cls, text: str) -> "YFWord":
        """Parse a digit string; the empty string is the empty word."""
        if any(c not in "12" for c in text):
            raise ValueError(f"word text must consist of '1'/'2' characters: {text!r}")
        return cls(int(c) for c in text)

    @property
    def text(self) -> str:
        return "".join(str(d) for d in self)

    @property
    def rank(self) -> int:
        """Digit sum."""
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def ones(self) -> int:
        return sum(1 for d in self if d == 1)

    @property
    def twos(self) -> int:
        """Number of 2s (distinct from the path count between two words)."""
        return sum(1 for d in self if d == 2)

    def __add__(self, other) -> "YFWord":
        return YFWord(tuple.__add__(self, tuple(other)))

    def __repr__(self) -> str:
        return f"YFWord({self.text!r})"


EPSILON = YFWord()


def parse(text: str) -> YFWord:
    """Parse a digit string over {1,2}; '' yields the empty word."""
    return YFWord.from_text(text)


def ones_word(k: int) -> YFWord:
    """The word 1^k."""
    return YFWord((1,) * k)


def suffix(x: YFWord, a: int) -> YFWord:
    """The last a digits of x."""
    if not 0 <= a <= len(x):
        raise ValueError(f"suffix length {a} out of range for word of length {len(x)}")
    return YFWord(x[len(x) - a:])


def prefix(x: YFWord, a: int) -> YFWord:
    """The first length-a digits of x, so that prefix(x,a) + suffix(x,a) == x."""
    if not 0 <= a <= len(x):
        raise ValueError(f"suffix length {a} out of range for word of length {len(x)}")
    return YFWord(x[:len(x) - a])


def suffix_ranks(x) -> tuple[int, ...]:
    """Ranks of the suffixes of x by length: entry i-1 is the rank of the last i digits."""
    out = []
    total = 0
    for d in reversed(x):
        total += d
        out.append(total)
    return tuple(out)


def split_by_rank(v: YFWord, y: int) -> Optional[tuple[YFWord, YFWord]]:
    """Split v = head + tail with rank(tail) == y, if such a split exists.

    Returns (head, tail) or None when no suffix of v has rank exactly y
    (a 2 straddles that rank).
    """
    if not 0 <= y <= sum(v):
        raise ValueError(f"target rank {y} out of range for word of rank {sum(v)}")
    total = 0
    a = 0
    while total < y:
        total += v[len(v) - 1 - a]
        a += 1
    if total != y:
        return None
    return YFWord(v[:len(v) - a]), YFWord(v[len(v) - a:])


def common_suffix_len(x, y) -> int:
    """Number of digits in the longest common suffix of x and y."""
    k, m = 0, min(len(x), len(y))
    while k < m and x[~k] == y[~k]:
        k += 1
    return k


def _suffix_key(w) -> int:
    """w as an int of two bits a digit, the last digit lowest: 1 is 01, 2 is 10, no digit 00.
    For d = _suffix_key(x) ^ _suffix_key(y), common_suffix_len(x, y) is the index of the lowest
    differing pair, ((d & -d).bit_length() - 1) >> 1, or len(x) when d == 0."""
    key = 0
    for d in w:
        key = key << 2 | d
    return key


def common_suffix_rank(x, y) -> int:
    """Digit sum of the longest common suffix of x and y."""
    k, m, total = 0, min(len(x), len(y)), 0
    while k < m and x[~k] == y[~k]:
        total += x[~k]
        k += 1
    return total


def up_neighbors(x: YFWord) -> set[YFWord]:
    """All words covering x (rank of each result is rank(x) + 1)."""
    out: set[YFWord] = set()
    try:
        p = x.index(1)
    except ValueError:
        p = len(x)
    if p < len(x):
        out.add(YFWord(x[:p] + (2,) + x[p + 1:]))
        positions = range(p + 1)
    else:
        positions = range(len(x) + 1)
    for i in positions:
        out.add(YFWord(x[:i] + (1,) + x[i:]))
    return out


def down_neighbors(y: YFWord) -> set[YFWord]:
    """All words covered by y: exactly the x with y in up_neighbors(x)."""
    out: set[YFWord] = set()
    m = 0
    while m < len(y) and y[m] == 2:
        m += 1
    for j in range(m):
        out.add(YFWord(y[:j] + (1,) + y[j + 1:]))
    if m < len(y):
        out.add(YFWord(y[:m] + y[m + 1:]))
    return out


class _Frozen:
    """Base of the value classes that are not NamedTuples (yflab imports no dataclasses, whose
    import was most of its own): __init__ sets fields with object.__setattr__ or in vars(self)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Level(_Frozen):
    """All words of one rank, in lexicographic order with 1 before 2."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: tuple[YFWord, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "words", words)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.words) == (other.n, other.words)

    def __hash__(self):
        return hash((self.n, self.words))

    def __repr__(self) -> str:
        return f"Level(n={self.n!r}, words={self.words!r})"

    def __reduce__(self):
        return Level, (self.n, self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[YFWord]:
        return iter(self.words)


@lru_cache(maxsize=None)
def _level(n: int) -> Level:
    level = Level(n, tuple(iter_level(n)))
    # the count is the recursive definition's (1-branch then 2-branch), so
    # this checks iter_level's successor rule at every rank it builds
    assert len(level.words) == fibonacci(n + 1)
    return level


def enumerate_level(n: int) -> Level:
    """All words of rank n in lexicographic order, 1 before 2; count Fib(n+1).

    The words are iter_level's, held in one cached Level per rank.  Ranks
    n >= 92 are refused before anything is built: no tuple holds
    Fib(93) > sys.maxsize words.  Ranks 35..91 pass this check but run out
    of memory: a level takes about 210 bytes a word at rank 26, and rank 35
    has Fib(36) = 14,930,352 words.  Bounding them needs a measured limit;
    ``yflab level`` streams any of them instead."""
    return _level(n)


def iter_level(n: int) -> Iterator[YFWord]:
    """The words of enumerate_level(n), in its order, one at a time and uncached.

    That order is lexicographic with 1 before 2, so each word follows from the
    one before by digits alone: its rightmost 1 that has digits after it becomes
    a 2, and those digits become 1s of one less total rank.  Memory stays O(n).
    A negative rank, and ranks n >= 92 (Fib(93) > sys.maxsize words), are
    refused before the first word."""
    check_level_rank(n)

    def stream() -> Iterator[YFWord]:
        digits = [1] * n
        while True:
            yield tuple.__new__(YFWord, digits)  # only 1s and 2s: YFWord's check is moot
            tail = 0  # rank of the digits popped; the last digit always goes
            while digits and (tail == 0 or digits[-1] == 2):
                tail += digits.pop()
            if not digits:
                return
            digits[-1] = 2
            digits.extend([1] * (tail - 1))

    return stream()


def check_level_rank(n: int) -> None:
    """Refuse a negative rank, and ranks n >= 92 (Fib(93) > sys.maxsize words)."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if fibonacci(n + 1) > sys.maxsize:
        raise ValueError(f"rank {n} has more than sys.maxsize words; no tuple can hold them")


@lru_cache(maxsize=None)
def fibonacci(k: int) -> int:
    """Fibonacci numbers with fibonacci(1) == fibonacci(2) == 1."""
    if k <= 0:
        return 0
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a
