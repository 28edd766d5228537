"""The CUDASW++ application layer.

Reassembles the kernels into the full database-search pipeline of the
paper:

1. sort the database by length, split it at the dispatch threshold
   (default 3072): shorter sequences go to the inter-task kernel, longer
   ones to the intra-task kernel (:class:`~repro.app.cudasw.CudaSW`);
2. partition the inter-task part into groups sized by the occupancy
   calculator, one kernel launch per group
   (:mod:`~repro.app.scheduler`);
3. copy the database to the device (optionally streamed/overlapped,
   Section VI) (:mod:`~repro.app.transfer`);
4. model the run time of every launch with the cost model and report
   GCUPs, the intra-task time fraction (Figure 5b) and ranked hits.

:mod:`~repro.app.threshold` implements Section VI's automatic threshold
detection; :mod:`~repro.app.multigpu` the near-linear multi-GPU scaling
the paper appeals to.
"""

from repro.app.batch import BatchReport, predict_batch, search_batch
from repro.app.cudasw import CudaSW, SearchReport
from repro.app.multigpu import multi_gpu_time, split_round_robin
from repro.app.results import Hit, SearchResult
from repro.app.scheduler import InterTaskSchedule, schedule_inter_task
from repro.app.threshold import optimal_threshold, threshold_sweep
from repro.app.transfer import TransferModel
from repro.engine import SearchConfig

__all__ = [
    "BatchReport",
    "CudaSW",
    "SearchConfig",
    "SearchReport",
    "predict_batch",
    "search_batch",
    "Hit",
    "SearchResult",
    "InterTaskSchedule",
    "schedule_inter_task",
    "TransferModel",
    "optimal_threshold",
    "threshold_sweep",
    "multi_gpu_time",
    "split_round_robin",
]
