# Shrunk repro of `repro chaos --protocol basic` seed 210 (5 of its events).
# Runs against build_cluster(ChaosOptions(protocol="basic"), 210), started.
#
# The scoped switch leaves r0 believing it leads. Nacked at the first heal,
# r0 retries and then sits RECOVERING through the second partition while
# c0 broadcasts c0#5..c0#10 and r1 commits them. When r0 finally recovers,
# its snapshot says c0 -> 10: c0#5..c0#10 are stale, and proposing any of
# them again commits a request twice (at_most_once).
# mutation: propose-stale  (puts the bug back; the script must then fail)
from repro.cluster.faults import FaultSchedule

schedule = FaultSchedule(cluster)
schedule.partition([['r0'], ['r1', 'r2']], at=0.0573)
schedule.switch_leader('r1', at=0.0673, pids=['r1', 'r2'])
schedule.heal(at=0.4231)
schedule.partition([['r1', 'r2'], ['r0']], at=0.6383)
schedule.heal(at=1.1768)
