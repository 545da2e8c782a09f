"""Old import path of the social workload.

``bench/workloads.py`` and ``bench/trace.py`` import the §7.4 workload
under this name and path, and the benchmark is kept unchanged so that its
numbers stay comparable across commits.  They pass only ``num_users``,
``min_replicas`` and ``max_replicas``, and ``bench/trace.py`` patches
``client_generator`` on the class; the alias keeps all three working.
"""

from repro.workloads.facebook import FacebookWorkload

__all__ = ["StreamingFacebookWorkload"]

StreamingFacebookWorkload = FacebookWorkload
