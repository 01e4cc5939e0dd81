"""Three-party simultaneous quantum secure direct communication simulator.

Exact state-vector simulation of a round-based protocol in which Alice,
Bob and Charlie exchange one secret bit each per message round over shared
EPR pairs, plus pluggable eavesdropping attacks and a Monte Carlo harness
that checks the protocol's detection-probability claims against analytic
enumeration.

Removed
-------
The draw-per-point wrappers: a chance-point step is weighed exactly
(``protocol.leaf_weights``), or drawn with ``states.drive`` when its points
are Bernoulli.  None of these names is defined or exported any more:

* ``states.measure_qubit``: ``drive(TransitionTable().measure_points(state, which, basis), rng)``
* ``bell_measure``: ``TransitionTable().bell_points(state)``
* ``measure_ancilla_and_discard``: ``drive(TransitionTable().readout_points(state), rng)``
* ``TransitionTable.measure``, ``TransitionTable.readout``, ``TransitionTable.bell``: the ``*_points``
* ``attack_transit``: ``drive(adversary.attack_points(TransitionTable(), model, segment, state), rng)``
* ``run_ab_check``, ``run_ca_check``, ``run_decoy_check``: ``protocol.failed_weights``

Second derivations of a fact the package holds once:

* ``adversary.revealed_basis``: ``Leaf.family`` of a compiled round's leaf
* ``adversary.failed_weight_by_basis``: ``analytic_detection_probability``
* ``JointState.n_qubits``: ``len(state.subsystems)``
* ``cli.parse_json``: ``json.loads``

The one-shot helpers that built a fresh table or called the kernels
directly, beside the table steps the round engine runs:

* ``apply_pauli``, ``apply_pauli_on_transit``: ``TransitionTable().pauli(state, which, pauli)``
* ``attach_ancilla_and_entangle``: ``TransitionTable().attach(state, beta_sq)``
* ``outcome_probabilities``, ``collapse_outcome``: ``TransitionTable().measure_points(state, which, basis)``
* ``plugin_mutual_information``: the leakage audit's count-based ``harness._mutual_information(Counter(zip(xs, ys)))``

The probe coupling is one number, its flip weight beta^2, not two complex
amplitudes behind a norm check:

* ``AttackModel.alpha``, ``AttackModel.beta``: ``AttackModel.beta_sq``
* ``check_coupling``, ``COEFF_NORM_ATOL``: ``AttackModel`` checks ``beta_sq`` with ``states.check_probability``

One curve entry point, the coupling sweep, with no attack-factory hook:

* ``detection_curve``: ``entangle_measure_curve(grid, check_kinds=..., message_length=..., trials=..., schedule=..., seed=...)``

Public names that only the tests read:

* ``allclose_up_to_global_phase``, ``AMP_ATOL``: defined in tests/test_states.py
"""

from .backend import active_backend
from .states import (
    Basis,
    BellLabel,
    DecoyState,
    JointState,
    Pauli,
    Subsystem,
    bell_state,
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
    analytic_detection_probability,
    announce,
    decode_alice,
    decode_bob,
    decode_charlie,
    encode_bob,
    encode_charlie,
    run_protocol,
)
from .adversary import (
    AttackKind,
    AttackModel,
    ChannelSegment,
    EveRecord,
)
from .harness import (
    CheckStats,
    CurvePoint,
    DetectionReport,
    ExperimentAborted,
    ExperimentConfig,
    ExperimentResult,
    LeakageReport,
    entangle_measure_curve,
    exhaustive_oracle,
    run_experiment,
    wilson_interval,
)

__version__ = "0.1.0"
