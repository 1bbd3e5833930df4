"""Exact Chevalley-Eilenberg cohomology, deformation verdicts and Newton
continuation for finite-dimensional Lie algebras over the rationals.

Layers, from the ground up:

- ``records``: ``record``, the frozen value classes of every layer, made
  without ``dataclasses``.
- ``exactlin``: rational linear algebra on one matrix type, kept as the
  nonzeros of each row, and one elimination, the rank form, from which
  ranks, kernel vectors, rref, solves, inverses and quotients are read.
- ``cochains``: alternating multilinear maps in flat coordinates.
- ``algebras``: bracket candidates, Lie algebras, homomorphisms, subalgebra
  witnesses, the three coefficient systems, and the builtin catalog.
- ``cecomplex``: differentials, cohomology reports, induced maps, the long
  exact sequence of a subalgebra.
- ``kuranishi``: Jacobiator/curvature expansions and the three obstruction
  classes.
- ``verdicts``: rigidity/stability conclusions with evidence.
- ``documents``: JSON documents, ``NewtonConfig`` and the Newton errors.
- ``pcg64``: NumPy's ``default_rng(seed)`` stream (``SeedSequence`` mixing,
  PCG64 seeding and its LCG step) in Python ints, a band of seeds at once,
  with no package import and no NumPy, so that seeded perturbations load no
  ``numpy.random``.
- ``deformlab``: floating-point Newton orbit recovery, zero continuation and
  finite-difference checks; it alone needs NumPy, so it is imported
  lazily, when one of its names here is first read, and it imports NumPy
  only on its first float computation.
- ``cli``: the command line.

Each module imports package modules only from the layers listed before it.
"""

from .algebras import (BracketCandidate, Homomorphism, LieAlgebra,
                       SubalgebraWitness, ValidationError, abelian,
                       adjoint_rep, catalog_algebra, catalog_names, curvature,
                       hom_preset, hom_preset_names, pullback_rep,
                       quotient_rep, sub_preset, sub_preset_names,
                       subalgebra_defect, subalgebra_witness, validate_bracket,
                       validate_homomorphism)
from .cecomplex import (CEComplex, CohomologyReport, CohomologyUndefinedError,
                        Problem, adjoint_cohomology, cohomology,
                        euler_characteristic, induced_map_on_h, les_subalgebra,
                        pullback_cochain_map)
from .cochains import AltMap
from .documents import (ChartError, InputDefectError, MalformedDocumentError,
                        NewtonConfig, PreconditionError, parse_algebra_doc,
                        parse_direction_doc, parse_experiment_doc,
                        parse_hom_doc, parse_sub_doc, resolve_algebra,
                        resolve_hom, resolve_sub)
from .kuranishi import (NonCocycleError, ObstructionClass, Splitting,
                        curvature_expansion_check, jacobiator,
                        jacobiator_expansion_check, kuranishi_bracket,
                        kuranishi_hom, kuranishi_sub, omega_sigma,
                        splitting_independence_check, standard_splitting)
from .verdicts import (KuranishiModelDims, Verdict, bracket_rigidity,
                       bracket_smoothness, hom_aut_rigidity,
                       hom_infinitesimal_stability_indicator, hom_rigidity,
                       hom_stability, kuranishi_model_dims, sub_rigidity,
                       sub_stability)

__version__ = "0.1.0"

# names of deformlab exported here, loaded on first access (PEP 562)
_FLOAT_NAMES = ("ContinuationResult", "FloatBracket", "RecoveryResult",
                "act_on_bracket", "continue_hom", "continue_sub",
                "curve_cocycle_check", "recover_bracket_orbit",
                "recover_hom_orbit", "recover_sub_orbit", "run_experiment",
                "vertical_derivative_fd_check")
# what `from liedeform import *` binds: the public names, the float ones too
__all__ = [n for n in (*globals(), *_FLOAT_NAMES) if not n.startswith("_")]


def __getattr__(name):
    if name in _FLOAT_NAMES:
        from . import deformlab
        return getattr(deformlab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_FLOAT_NAMES])
