"""A small comparative experiment: baseline vs attack vs defense.

Uses a reduced network and duration so it finishes in a couple of seconds;
the full desk-scale configuration lives in the acceptance suite and the
command line (`lisec-rtf --help`).
"""

from lisec_rtf import Scenario, run_experiment
from lisec_rtf.scenario import parse_scenario

scenario = parse_scenario("""
grid_m             = 140
n_clients          = 12
n_attackers        = 2
root_rt_cap        = 24    # modest border device, felt quickly at this scale
duration_s         = 900
startup_stagger_s  = 400
data_warmup_s      = 500
seeds              = 5
arms               = baseline,attack,defense
""")

report = run_experiment(scenario, base=0)

print(f"{'arm':10s} {'PDR':>14s} {'AE2ED [s]':>14s} {'APC [mW]':>14s}")
for entry in report.summary:
    print(f"{entry['arm']:10s} "
          f"{entry['pdr_mean']:7.3f}±{entry['pdr_ci95']:5.3f} "
          f"{entry['ae2ed_s_mean']:8.4f}±{entry['ae2ed_s_ci95']:5.4f} "
          f"{entry['apc_mw_mean']:8.4f}±{entry['apc_mw_ci95']:5.4f}")

pdr_mean = {entry["arm"]: entry["pdr_mean"] for entry in report.summary}
base, attack, defense = (pdr_mean[arm] for arm in ("baseline", "attack", "defense"))
print(f"\nrelative to baseline: attack delivers {attack / base:.0%}, "
      f"the defended network {defense / base:.0%}")
