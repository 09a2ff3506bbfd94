import random
from fractions import Fraction

import pytest

from so3g2.variety import ModelPoint


@pytest.fixture
def rng():
    return random.Random(20240915)


def random_exact_point(rng, span=6) -> ModelPoint:
    while True:
        x = [Fraction(rng.randint(-span, span)) for _ in range(2)]
        y = [Fraction(rng.randint(-span, span)) for _ in range(3)]
        if any(v != 0 for v in x) and any(v != 0 for v in y):
            return ModelPoint.make(x, y)


def random_float_point(rng, span=2.0) -> ModelPoint:
    while True:
        x = [rng.uniform(-span, span) for _ in range(2)]
        y = [rng.uniform(-span, span) for _ in range(3)]
        if max(abs(v) for v in x) > 0.1 and max(abs(v) for v in y) > 0.1:
            return ModelPoint.make(x, y)


@pytest.fixture
def fractions_made(monkeypatch):
    """A list that records every Fraction created from here on in the test
    (also through Fraction arithmetic, which builds its results with
    Fraction.__new__, or with _from_coprime_ints where Python has it)."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in Fraction.__dict__:
        coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, numerator, denominator):
            made.append((numerator, denominator))
            return coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return made
