"""Assignment optimization on fixed decision-diagram skeletons.

The toolkit evaluates item/method assignments against a weighted examinee
population, encodes the three optimization settings as binary programs with
LP text export, and solves them natively by exact branch-and-bound verified
against an exhaustive oracle. ``diagopt.problem`` holds ``Instance`` and
``SETTINGS``, the one definition of each setting's sense, objective and side
rows; the shipped instances are ``fileio.InstanceDoc`` templates.
"""
from .candidates import (
    CandidateFamily,
    CategoryFamily,
    build_family,
    category_filter,
    neighborhood,
    role_restrict,
)
from .core import (
    Arc,
    Assignment,
    Diagram,
    ExamineeType,
    InputError,
    ItemUniverse,
    Metrics,
    MethodUniverse,
    Population,
    evaluate,
    validate_diagram,
)
from .datagen import (
    Categorical,
    GenConfig,
    GenerationError,
    Predicate,
    ThresholdTable,
    TruncatedNormal,
    binarize,
    default_attribute_specs,
    default_method_universe,
    default_threshold_table,
    generate_population,
    sample_raw,
    sample_response,
)
from .encoder import (
    BuildError,
    DecodeError,
    IPModel,
    VariablePoint,
    build_model,
    decode,
    encode_assignment,
    export_lp,
)
from .instances import build_instance, instance_template
from .problem import Instance
from .solver import (
    EnumerationCapError,
    Solution,
    VerificationReport,
    bound,
    brute_force,
    solve,
    verify,
)

__version__ = "0.1.0"
