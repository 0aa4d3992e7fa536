"""cvcluster: compile Gaussian unitaries to cluster-state homodyne programs.

An arbitrary n-mode Gaussian unitary (symplectic matrix plus displacement)
compiles to a finite cluster graph of squeezed ancillas, a homodyne
measurement schedule, and feedforward displacement rules; a Gaussian-state
simulator executes the program at finite squeezing and verifies convergence
to the target.
"""

from .errors import (
    CompileError,
    DegenerateConditioningError,
    DegenerateMeasurementError,
    ProgramError,
    SchemaError,
    SingularParameterError,
    VersionError,
)
from .executor import ExactReplay, exact_replay
from .ir import (
    ClusterGraph,
    FeedforwardRule,
    GateRecord,
    MeasurementProgram,
    Node,
    ScheduleEntry,
    SynthesisReport,
)
from .multimode import (
    BlochMessiahFactors,
    ConnectionGateParams,
    beam_splitter_program,
    bloch_messiah,
    compile,
    connection_gate,
    reck_decompose,
)
from .simulator import (
    GaussianState,
    OutcomePolicy,
    PINNED_ZERO,
    build_cluster,
    coherent,
    db_to_r,
    effective_map,
    extract_effective_map,
    homodyne_measure,
    r_to_db,
    run_program,
    sampled,
    symplectic_eigenvalues,
    vacuum,
    validate_state,
)
from .single_mode import (
    FourStepParams,
    decompose_four_step,
    select_free_kappa1,
    three_step_reachable,
)
from .symplectic import (
    SymplecticMap,
    VACUUM_QUADRATURE_VARIANCE,
    beam_splitter_matrix,
    compose,
    compose_many,
    embed,
    fourier,
    fourier_power,
    identity,
    random_symplectic,
    require_symplectic,
    rotation,
    squeeze,
    symplectic_form,
    symplectic_residual,
)
from .teleport import (
    TelepAngles,
    TelepPlusTwoParams,
    canonicalize,
    decompose_telep_plus_two,
    mtel,
)

__version__ = "0.1.0"
