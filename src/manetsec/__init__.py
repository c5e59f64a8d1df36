"""manetsec: group-based MANET key management and secure on-demand routing,
with a deterministic simulator and a post-run security auditor."""

from .audit import AuditReport, audit, knowledge_set
from .crypto import (
    DeterministicProvider,
    KeyPair,
    RealCryptoProvider,
    dh_contribute,
    make_provider,
    zk_commit,
    zk_respond,
    zk_setup,
    zk_verify,
)
from .group import (
    NodeAttributes,
    WeightConfig,
    elect_leader,
    mobility,
    update_trust,
    weight,
)
from .keymgmt import (
    Certificate,
    CertificateAuthority,
    derive_member_key,
    leader_ring_agree,
)
from .routing import Router, chain_extend, chain_origin, expected_chain, make_rreq, make_rrep
from .scenariofile import parse_scenario, scenario_to_text
from .sim import (
    Action,
    AdversarySpec,
    EventLog,
    Expectation,
    GroupSpec,
    NodeSpec,
    Scenario,
    SimParams,
    Simulation,
    run,
)

__version__ = "0.1.0"
