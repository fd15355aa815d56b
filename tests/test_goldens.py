"""The golden differential corpus (``make_goldens.py``), replayed in process:
every request's exit code, stdout and stderr stay byte for byte what the
corpus recorded, and a replay notices a broken engine."""
import time
from fractions import Fraction

import pytest

import make_goldens
from ordpoly import PiecewisePolynomial, lattice, model, sampler, tree

# The whole corpus (about 1,750 requests) replays in about 4 s on a 2-vCPU
# host; the budget leaves room for a slow or busy one.
REPLAY_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def goldens():
    return make_goldens.load()


def test_replay_is_byte_identical(goldens):
    started = time.perf_counter()
    differ = make_goldens.replay(goldens)
    elapsed = time.perf_counter() - started
    assert not differ, f"{len(differ)} answers changed, first {differ[:10]}"
    assert elapsed < REPLAY_BUDGET_S, f"replay took {elapsed:.1f} s"


def _shifted_fill(fill):
    def shifted(self, rows, rng):
        rng.random()  # one step of the stream spent before the draw
        fill(self, rows, rng)

    return shifted


def _scaled_pieces(marginal_tree):
    def scaled(t, x):
        pw = marginal_tree(t, x)
        k = 1 + Fraction(1, 10**9)
        return PiecewisePolynomial(pw.breakpoints, tuple(p * k for p in pw.pieces))

    return scaled


@pytest.mark.parametrize(
    "target, name, broken",
    [
        (tree, "volume_tree", lambda f: lambda t: f(t) + Fraction(1, 10**9)),
        (lattice, "_where", lambda f: lambda *args: f(*args).replace("the ", "a ", 1)),
        (sampler._PartDraw, "fill", _shifted_fill),
        (lattice, "_expectation", lambda f: lambda *args: f(*args) + Fraction(1, 10**9)),
        (tree, "marginal_tree", _scaled_pieces),
        (model, "_witness_chain", lambda f: lambda *args: f(*args)[::-1]),
        # W(Q*rho) over Q^(N-1), not Q^N: a tree volume off by its scale Q
        (tree, "volume_tree", lambda f: lambda t: f(t) * t.scale),
    ],
    ids=[
        "exact-fraction",
        "error-message",
        "draw-stream",
        "lattice-value",
        "tree-marginal",
        "contradiction-witness",
        "tree-scale",
    ],
)
def test_replay_notices_a_broken_copy(goldens, monkeypatch, target, name, broken):
    monkeypatch.setattr(target, name, broken(getattr(target, name)))
    assert make_goldens.replay(goldens, stop_at_first=True)
