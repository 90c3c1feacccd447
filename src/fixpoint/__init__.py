"""Certified Picard iteration and homotopy continuation for contractive
nonself-mappings."""

__version__ = "0.1.0"

from .core import (AdmissibilityReport, ContractivityReport, DomainSet,
                   MappingInstance, Modulus, Space, as_point,
                   ball, box, check_modulus_admissible, constant_modulus,
                   euclidean, halfline, max_norm, nonexpansive_modulus,
                   rational_decay_modulus, verify_contractive)
from .picard import (FixedPointResult, Orbit, StabilityConstants,
                     StabilityReport, TrialRecord, cluster_tolerance,
                     coupling_index, orbit_csv, orbit_exact, orbit_inexact,
                     run_stability_experiment, settling_index,
                     solve_fixed_point, stability_constants,
                     stability_report_text)
from .continuation import (ContinuationPath, LimitCertificate,
                           NormBounds, PathConfig, PathEntry,
                           apriori_norm_bound, check_leray_schauder,
                           limit_path, lipschitz_bound, path_csv,
                           solve_at_t, step_size, trace_path)
from .gallery import GalleryEntry, ParamSpec, list_maps, make_map
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
