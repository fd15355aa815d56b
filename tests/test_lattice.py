"""Cross-engine battery: the downset lattice against extension enumeration.

Every answer is compared with ``==`` as exact fractions.  The reference
side is the enumerator: its public folds for volume, expected values and
marginals, and for top-k a tally over ``enumerate_extensions`` written
out here, independent of the library's top-k code.
"""
import random
from fractions import Fraction

import gen
from ordpoly import (
    PersistentTieError,
    check_containment,
    enumerate_extensions,
    exact,
    global_topk,
    interpolate_all,
    lattice,
    marginal_exact,
    u_sequence_probabilities,
    volume_exact,
)
from ordpoly.model import Prepared


def pinned_doc(rng: random.Random) -> gen.Doc:
    """A random DAG with pins, sometimes moving the lowest pin to 0 and
    the highest to 1 (both stay consistent with the DAG)."""
    names, order, pins = gen.mixed_doc(rng, rng.randint(1, 6), rng.randint(0, 3))
    if pins and rng.random() < 0.4:
        pins[min(pins, key=pins.get)] = Fraction(0)
    if len(pins) > 1 and rng.random() < 0.4:
        pins[max(pins, key=pins.get)] = Fraction(1)
    return names, order, pins


def has_user_ties(cs) -> bool:
    try:
        Prepared(cs).reject_user_ties()
    except PersistentTieError:
        return True
    return False


def lattice_answers(cs):
    """Volume, every expected value and every unknown's marginal from one
    lattice pass over the whole set's tie quotient."""
    prep = exact._prepare(Prepared(cs))
    volume, acc = lattice.aggregate(prep, exact.DEFAULT_BUDGET, prep.unknown_ids)
    values, marginals = {}, {}
    for v in cs.variables:
        if v.id in cs.exact_values:
            continue
        cls = prep.class_of[v.id].id
        pinned = prep.quotient.exact_values.get(cls)
        if pinned is not None:
            values[v.name] = pinned
        else:
            values[v.name] = exact._expectation(prep, volume, acc[cls])
            marginals[v.name] = exact._density(prep, volume, acc[cls])
    return volume, values, marginals


def test_values_and_marginals_match_enumeration():
    rng = random.Random(2016)
    docs = [pinned_doc(rng) for _ in range(50)]
    docs += [gen.tied_doc(rng, rng.randint(2, 6), rng.randint(1, 2)) for _ in range(15)]
    for doc in docs:
        cs = gen.to_cs(doc)
        volume, values, marginals = lattice_answers(cs)
        if not has_user_ties(cs):
            assert volume == volume_exact(cs), doc
        assert values == interpolate_all(cs), doc
        for name, pw in marginals.items():
            assert pw == marginal_exact(cs, name), (doc, name)


def enumerated_topk(cs, sel):
    """Sequence and rank volumes over every extension, descending."""
    sequences, ranks = {}, {}
    for ext in enumerate_extensions(cs):
        vol = ext.volume()
        top = tuple(v.name for v in reversed(ext.order) if v.name in sel)
        sequences[top] = sequences.get(top, 0) + vol
        for r, name in enumerate(top, start=1):
            ranks[name, r] = ranks.get((name, r), 0) + vol
    return sequences, ranks, sum(sequences.values())


def first_break(answers):
    """(k, shorter, longer) where the k-answer stops being a prefix."""
    for k in range(1, len(answers)):
        if answers[k][:k] != answers[k - 1]:
            return k, answers[k - 1], answers[k]
    return None, answers[-2], answers[-1]


def test_topk_matches_enumeration():
    rng = random.Random(2006)
    for _ in range(40):
        names, order, pins = pinned_doc(rng)
        cs = gen.to_cs((names, order, pins))
        if has_user_ties(cs):
            continue  # u and global top-k refuse persistent ties
        sel = sorted(rng.sample(names, rng.randint(1, len(names))))
        sequences, ranks, volume = enumerated_topk(cs, sel)
        u_answers, global_answers = [], []
        for k in range(1, len(sel) + 1):
            heads = {}
            for top, vol in sequences.items():
                heads[top[:k]] = heads.get(top[:k], 0) + vol
            probs = {top: vol / volume for top, vol in heads.items()}
            assert u_sequence_probabilities(cs, sel, k) == probs, (names, order, pins, k)
            u_answers.append(min(probs, key=lambda s: (-probs[s], s)))
            inclusion = {
                name: sum(ranks.get((name, r), 0) for r in range(1, k + 1)) / volume
                for name in sel
            }
            ranked = sorted(inclusion.items(), key=lambda item: (-item[1], item[0]))
            got = global_topk(cs, sel, k)
            assert [(v.name, p) for v, p in got.entries] == ranked[:k], (names, order, k)
            global_answers.append(tuple(name for name, _ in ranked[:k]))
        if len(sel) < 2:
            continue
        for semantics, answers in (("u", u_answers), ("global", global_answers)):
            report = check_containment(cs, sel, semantics)
            violated_at, shorter, longer = first_break(answers)
            assert (report.holds, report.violated_at) == (violated_at is None, violated_at)
            assert (report.shorter, report.longer) == (shorter, longer)
