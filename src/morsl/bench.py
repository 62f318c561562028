"""Field-multiplication cost reports.

The model counts field multiplications only (additions are free).  The
headline number is the cost of composing two automorphisms: the
worst-case bound (p-1)*gamma*d^4 + d^4 applies to one generator image
computed sequentially (the original accounting parallelizes across
images and partitions; evaluation here is sequential, so the bound is
checked per image and the whole-composition total is reported next to
it).  The realistic estimate d^2 + (gamma/2)*d^2.5 is printed alongside.

Word statistics are reported, never asserted: decomposition length is
bounded by d^2, and the mean is compared against the informal
"approximately d letters for a random element" expectation.
"""

from __future__ import annotations

from .autos import Automorphism, generator_pairs, pair_orbits
from .field import FieldSpec, cost_counter, cost_reset
from .matrix import random_gl, random_sl
from .words import decompose, split_ground

__all__ = [
    "composition_cost_report",
    "word_length_stats",
    "split_ground_stats",
    "orbit_length_stats",
    "format_composition_report",
    "format_word_stats",
]


def composition_bound(spec: FieldSpec, d: int) -> int:
    return (spec.p - 1) * spec.gamma * d**4 + d**4


def composition_estimate(spec: FieldSpec, d: int) -> float:
    return d**2 + spec.gamma / 2 * d**2.5


def composition_cost_report(spec: FieldSpec, d: int, rng, trials: int = 3) -> dict:
    """Measure field multiplications while composing random conjugation
    automorphisms, image by image."""
    per_image: list[int] = []
    totals: list[int] = []
    for _ in range(trials):
        phi = Automorphism.from_conjugator(random_gl(spec, d, rng))
        psi = Automorphism.from_conjugator(random_gl(spec, d, rng))
        cost_reset()
        images = {}
        for key in generator_pairs(d):
            before = cost_counter()
            images[key] = psi.apply(phi.images[key])
            per_image.append(cost_counter() - before)
        # constructing the result validates determinants and refactors
        # the images; that cost belongs to the composition total
        Automorphism(spec, d, images)
        totals.append(cost_counter())
    return {
        "d": d,
        "p": spec.p,
        "gamma": spec.gamma,
        "trials": trials,
        "bound_per_image": composition_bound(spec, d),
        "estimate": composition_estimate(spec, d),
        "per_image_max": max(per_image),
        "per_image_mean": sum(per_image) / len(per_image),
        "composition_total_mean": sum(totals) / len(totals),
        "within_bound": max(per_image) <= composition_bound(spec, d),
    }


def word_length_stats(spec: FieldSpec, d: int, samples: int, rng) -> dict:
    lengths = [len(decompose(random_sl(spec, d, rng))) for _ in range(samples)]
    return {
        "d": d,
        "q": spec.q,
        "samples": samples,
        "length_max": max(lengths),
        "length_mean": sum(lengths) / len(lengths),
        "length_bound": d * d,
        "reference_mean": d,  # reported against the informal ~d expectation
    }


def split_ground_stats(spec: FieldSpec, d: int, samples: int, rng) -> dict:
    """Expansion factor of splitting coefficients over the ground field."""
    ratios = []
    for _ in range(samples):
        w = decompose(random_sl(spec, d, rng))
        if len(w):
            ratios.append(len(split_ground(w)) / len(w))
    mean = sum(ratios) / len(ratios) if ratios else 0.0
    return {
        "gamma": spec.gamma,
        "samples": samples,
        "expansion_mean": mean,
        "reference_expansion": spec.gamma / 2,
    }


def orbit_length_stats(d: int, samples: int, rng) -> dict:
    """Distribution of ordered-pair orbit lengths for random permutations."""
    from .matrix import Permutation

    counts: dict[int, int] = {}
    for _ in range(samples):
        for orbit in pair_orbits(Permutation.random(d, rng)):
            counts[len(orbit)] = counts.get(len(orbit), 0) + 1
    return {"d": d, "samples": samples, "orbit_length_counts": dict(sorted(counts.items()))}


def format_composition_report(rep: dict) -> str:
    return "\n".join(
        [
            f"composition cost, d={rep['d']}, p={rep['p']}, gamma={rep['gamma']} "
            f"({rep['trials']} trials)",
            f"  worst-case bound (p-1)*gamma*d^4 + d^4 : {rep['bound_per_image']}",
            f"  realistic estimate d^2 + (gamma/2)*d^2.5: {rep['estimate']:.1f}",
            f"  measured per-image max                  : {rep['per_image_max']}",
            f"  measured per-image mean                 : {rep['per_image_mean']:.1f}",
            f"  measured full composition mean          : {rep['composition_total_mean']:.1f}",
            f"  per-image max within bound              : {rep['within_bound']}",
        ]
    )


def format_word_stats(rep: dict) -> str:
    return "\n".join(
        [
            f"decomposition length, d={rep['d']}, q={rep['q']} ({rep['samples']} samples)",
            f"  bound d^2      : {rep['length_bound']}",
            f"  observed max   : {rep['length_max']}",
            f"  observed mean  : {rep['length_mean']:.2f}",
            f"  reference mean : ~{rep['reference_mean']} (informal expectation, reported only)",
        ]
    )
