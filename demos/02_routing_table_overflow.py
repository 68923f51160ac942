"""The routing-table overflow story on a hand-placed nine-node network.

Node d, a compromised child of b, registers two nonexistent children so
that b's two-entry routing table is full when the late node h tries to
join.  Run once without the defense and once with it.
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


show("attack")
show("defense")
print("\nUndefended, the fakes hold b's table and h never completes its "
      "registration;\nwith license checks on, the root refuses them, b purges "
      "and blacklists d,\nand h registers normally.")
