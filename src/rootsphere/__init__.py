"""Exact sphere and paraboloid characterizations of multiplicative support expansions.

Public names load on first access: ``rootsphere.fit_sphere`` imports
``rootsphere.quadric`` when it is first read (PEP 562), so a program loads
only the modules it uses.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    "AffineAxiomReport": "affine_root",
    "AffineSupportSpec": "affine_root",
    "AffineVector": "exact",
    "AffineVerdict": "affine_root",
    "AffineView": "affine_root",
    "AxiomReport": "finite_root",
    "CatalogEntry": "catalog",
    "DivisionTooLargeError": "group_ring",
    "ExpansionTooLargeError": "group_ring",
    "ExplicitAffineSupport": "affine_root",
    "FiniteVerdict": "finite_root",
    "GeneratedAffineSupport": "affine_root",
    "GroupRingElement": "group_ring",
    "GroupTooLargeError": "exact",
    "NotDivisibleError": "group_ring",
    "ParaboloidFit": "quadric",
    "PositiveSystem": "finite_root",
    "Q": "exact",
    "RootSystem": "finite_root",
    "SignedSupportMap": "group_ring",
    "SphereFit": "quadric",
    "SupportMap": "group_ring",
    "VerdictMismatchError": "exact",
    "affine": "exact",
    "affine_reflect_point": "affine_root",
    "affine_reflect_vec": "affine_root",
    "affine_weyl_rhs": "affine_root",
    "base": "finite_root",
    "characterize_affine": "affine_root",
    "characterize_finite": "finite_root",
    "check_affine_axioms": "affine_root",
    "check_axioms": "finite_root",
    "classify": "finite_root",
    "decompose": "affine_root",
    "denominator_rhs": "finite_root",
    "enumerate_support": "affine_root",
    "enumerate_weyl": "finite_root",
    "exact_divide": "group_ring",
    "expand_product": "group_ring",
    "fit_paraboloid": "quadric",
    "fit_sphere": "quadric",
    "imaginary_roots": "affine_root",
    "mobius": "catalog",
    "positive_roots": "finite_root",
    "rational": "exact",
    "reflect": "finite_root",
    "remark29_exponents": "catalog",
    "remark210_counterexample": "catalog",
    "series_inversion_oracle": "catalog",
    "shift_equivalent": "group_ring",
    "standard_finite": "catalog",
    "truncated_product": "group_ring",
    "untwisted_affine": "catalog",
    "vector": "exact",
    "weyl_vector": "finite_root",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
