"""Random-waypoint mobility vs a static deployment, plus the energy view.

Mobility breaks parent links faster than trickle repairs them, so delivery
drops sharply even without an attacker; per-node power splits into radio
and CPU states with low-power mode as the residual.
"""

from lisec_rtf import SimParams, build_random_world, pdr
from lisec_rtf.config import ARMS

params = SimParams(duration_s=900.0, startup_stagger_s=200.0,
                   data_warmup_s=300.0, grid_m=160.0)

for mobility in (False, True):
    values = []
    for seed in range(5):
        world = build_random_world(params, ARMS["baseline"], seed,
                                   n_clients=15, n_attackers=0,
                                   mobility=mobility)
        values.append(pdr(world.run()))
    label = "mobile" if mobility else "static"
    print(f"baseline {label:6s}: PDR per seed "
          f"{['%.2f' % v for v in values]}  mean {sum(values)/5:.3f}")

print("\nper-node energy breakdown (static, seed 0):")
world = build_random_world(params, ARMS["baseline"], 0, n_clients=15,
                           n_attackers=0)
world.run()
ledgers = world.counters.ledgers
elapsed = params.duration_s
print(f"{'node':6s} {'tx[s]':>8s} {'rx[s]':>8s} {'cpu[s]':>8s} "
      f"{'lpm[s]':>10s} {'energy[mJ]':>12s} {'power[mW]':>10s}")
for node_id in sorted(ledgers)[:8]:
    led = ledgers[node_id]
    print(f"{node_id:6s} {led.tx_s:8.3f} {led.rx_s:8.3f} {led.cpu_s:8.3f} "
          f"{led.lpm_s(elapsed):10.1f} {led.energy_mj(elapsed, params):12.2f} "
          f"{led.power_mw(elapsed, params):10.4f}")
