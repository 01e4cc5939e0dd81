"""Three-party simultaneous quantum secure direct communication simulator.

Exact state-vector simulation of a round-based protocol in which Alice,
Bob and Charlie exchange one secret bit each per message round over shared
EPR pairs, plus pluggable eavesdropping attacks and a Monte Carlo harness
that checks the protocol's detection-probability claims against analytic
enumeration.
"""

from .backend import active_backend
from .states import (
    AMP_ATOL,
    Basis,
    BellLabel,
    DecoyState,
    JointState,
    Pauli,
    Subsystem,
    allclose_up_to_global_phase,
    apply_pauli_on_transit,
    attach_ancilla_and_entangle,
    bell_measure,
    bell_state,
    measure_ancilla_and_discard,
    measure_qubit,
    outcome_probabilities,
    prepare_decoy,
)
from .protocol import (
    AbortPolicy,
    DecodedMessages,
    MessageTriple,
    ProtocolAborted,
    ProtocolResult,
    PublicTranscript,
    RoundBudgetExceeded,
    RoundKind,
    RoundRecord,
    SchedulePolicy,
    announce,
    decode_alice,
    decode_bob,
    decode_charlie,
    encode_bob,
    encode_charlie,
    run_ab_check,
    run_ca_check,
    run_decoy_check,
    run_protocol,
)
from .adversary import (
    AttackKind,
    AttackModel,
    ChannelSegment,
    EveRecord,
    analytic_detection_probability,
    attack_transit,
)
from .harness import (
    CheckStats,
    CurvePoint,
    DetectionReport,
    ExperimentAborted,
    ExperimentConfig,
    ExperimentResult,
    LeakageReport,
    detection_curve,
    entangle_measure_curve,
    exhaustive_oracle,
    plugin_mutual_information,
    run_experiment,
    wilson_interval,
)

__version__ = "0.1.0"
