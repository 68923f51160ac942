"""Hand-placed nine-node topology that tells the overflow story end to end.

Node b sits next to the root with a three-entry routing table, room for
its genuine descendants d, e and the late joiner h (below e) when no one
attacks.  The malicious child d floods b with registrations for nonexistent
children, so h cannot be registered while the network is undefended.
With license checks on, the border router refuses the forged registrations,
b purges them and blacklists d once d's own unregistered DAO bounces, and h
registers normally.
"""

from __future__ import annotations

from .config import ARMS, US, SimParams
from .engine import World
from .messages import is_forged_address
from .node import NodeRole

# unit-disk links (range 50): root-a, root-b, a-c, c-f, c-g, b-d, b-e, e-h
_LAYOUT = {
    "root": (100.0, 100.0),
    "a": (60.0, 100.0),
    "b": (140.0, 100.0),
    "c": (20.0, 100.0),
    "d": (140.0, 60.0),
    "e": (180.0, 100.0),
    "f": (20.0, 60.0),
    "g": (20.0, 140.0),
    "h": (180.0, 140.0),
}
_STARTS = {"e": 30 * US, "h": 60 * US}  # everyone else powers on at t=0
_B_TABLE_CAP = 3


def run_overflow_demo(arm_name: str) -> dict:
    params = SimParams(duration_s=120.0, startup_stagger_s=0.0,
                       data_warmup_s=0.0, data_period_s=1e9,
                       forged_per_period=2, attack_period_s=30.0)
    world = World(params, ARMS[arm_name], seed=42)
    for node_id, pos in _LAYOUT.items():
        if node_id == "root":
            role = NodeRole.ROOT
        elif node_id == "d":
            role = NodeRole.MALICIOUS
        else:
            role = NodeRole.CLIENT
        world.add_node(node_id, role, pos, start_time=_STARTS.get(node_id, 0))
    world.nodes["b"].rt_cap = _B_TABLE_CAP
    # d was reprogrammed after capture and holds no valid registration
    world.provision(skip={"d"})
    counters = world.run()
    b = world.nodes["b"]
    d = world.nodes["d"]
    forged_targets = [t for t in b.routing if is_forged_address(t)]
    forged_anywhere = any(is_forged_address(t) for n in world.nodes.values()
                          for t in n.routing)
    return {
        "arm": arm_name,
        "h_registered": world.nodes["h"].registered,
        "e_registered": world.nodes["e"].registered,
        "b_table_size": len(b.routing),
        "b_forged_entries": len(forged_targets),
        "forged_routes_anywhere": forged_anywhere,
        "d_blacklisted_at_b": d.address in b.blacklist,
        "forged_acked": counters.forged_acked,
        "forged_nacked": counters.forged_nacked,
        "world": world,
    }
