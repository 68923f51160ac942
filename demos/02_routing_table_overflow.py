"""The routing-table overflow story on a hand-placed nine-node network.

b's three-entry routing table has room for d, e and the late node h when
no one attacks.  Node d, a compromised child of b, registers two
nonexistent children so that the table is full when h tries to join.
Run without the attack, with it undefended, and with the defense.
"""

from lisec_rtf.demo import run_overflow_demo
from lisec_rtf.messages import format_address, is_forged_address


def show(arm: str) -> None:
    result = run_overflow_demo(arm)
    world = result.pop("world")
    b = world.nodes["b"]
    print(f"\n== {arm} arm ==")
    print(f"b's routing table ({len(b.routing)}/{b.rt_cap} entries):")
    for target, entry in b.routing.items():
        kind = "forged" if is_forged_address(target) else "genuine"
        print(f"  {format_address(target)}  via {format_address(entry.next_hop)}"
              f"  [{kind}]")
    print(f"forged registrations acked/nacked: "
          f"{result['forged_acked']}/{result['forged_nacked']}")
    print(f"d blacklisted at b: {result['d_blacklisted_at_b']}")
    print(f"h registered:       {result['h_registered']}")


show("baseline")
show("attack")
show("defense")
print("\nWithout the attack h registers; undefended, the fakes hold b's table "
      "and h never\ncompletes its registration; with license checks on, the "
      "root refuses them,\nb purges and blacklists d, and h registers normally.")
