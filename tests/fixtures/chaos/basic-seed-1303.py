# Shrunk repro of `repro chaos --protocol basic` seed 1303 (4 of its events).
# Runs against build_cluster(ChaosOptions(protocol="basic"), 1303), started.
#
# After the bursts r1 holds instance 16 chosen (c1#7) but lost the Chosen
# for 15. Taking over, it prepares gaps=(15,) from=17, so no Promise reports
# 16. Recovery must still re-propose 16 with its chosen value and start the
# pipeline at 17; starting at 16 chooses a second value there (P2c).
# mutation: recovery-skips-known-tail  (puts the bug back; the script must then fail)
from repro.cluster.faults import FaultSchedule

schedule = FaultSchedule(cluster)
schedule.dup_burst(0.427, at=0.0687, duration=0.255)
schedule.loss_burst(0.378, at=0.8419, duration=0.4094)
schedule.partition([['r0'], ['r2', 'r1']], at=1.0666)
schedule.switch_leader('r1', at=1.0766, pids=['r2', 'r1'])
