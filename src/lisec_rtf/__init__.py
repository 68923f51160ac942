"""RPL storing-mode simulator with a routing-table falsification attacker
and a PUF-license defense at the border router."""

from .config import ARMS, ArmFlags, SimParams
from .engine import World, build_random_world
from .messages import (
    DaoModified,
    DaoStatus,
    DioMessage,
    DisMessage,
    decode_dao,
    encode_dao,
)
from .metrics import RunCounters, aggregate_ci, ae2ed, apc, pdr
from .node import NodeRole, NodeState, TrickleState, compute_rank
from .puf import (
    CRDatabase,
    KeyedPuf,
    decrypt_license,
    encrypt_license,
    generate_license,
    recover_response,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .experiment import run_experiment, run_single

__version__ = "0.1.0"
