"""Information generation: instantaneous travel times and strategic forecasts.

At each provision interval two products are built from a candidate departure
pattern. The instantaneous product is the per-path sum of current link travel
times, read directly off the candidate loading. The strategic forecast
predicts what travel times will be if every traveler still to depart reacts to
the instantaneous product: the pooled remaining demand is logit-assigned under
the instantaneous times (by the share table the instantaneous class also
uses), the predicted columns are spliced onto the realized history, and the
spliced pattern is loaded again; the forecast travel times are the
realized-style path times of that hypothetical world.

Generating the full information set for one candidate therefore loads one
pattern for the instantaneous product (its ``instant_path_time``) plus one
per provision interval. The forecast spliced at t has the candidate's
departures before t, so its loading repeats the candidate loading up to
there: ``forecasts`` loads the T spliced patterns as one batch
(``dnl.load_batch``) in which each starts from the candidate loading's state
at its own interval, steps on its own and is timed from there on. Both its
input, the predicted columns, and its output, the forecast travel times, are
(provision interval t, path, departure interval j) arrays read only in their
open cells j >= t, the layout that ``choice.share_table`` reads and
``choice.assign`` writes. The kernel assigns the predicted columns into
that input (``choice.assign``'s pass: one remaining-demand row for each
interval of the instantaneous table, each block's residual folded into
its first largest share, which the pass finds there) and splices each
pattern with the candidate's departures before t as it loads it, so no
(T, paths, T) array is formed in numpy on the way; the forecast times are
the batch's own ``path_time`` array; the batch keeps none of its curves,
and returns its path times with each pattern's step count, drain flag and
extrapolated cells.
"""

from __future__ import annotations

import numpy as np

from . import choice, dnl
from .network import Network, PathSet, TimeGrid


def forecasts(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    h_total: np.ndarray,
    instant_shares: choice.ShareTable,
    base: dnl.LoadingResult,
) -> dnl.BatchResult:
    """Forecast made at every provision interval t from one candidate pattern.

    ``base`` is the loading of the candidate total ``h_total`` and
    ``instant_shares`` the share table of its instantaneous times. At t the
    pooled remaining demand of both classes under the candidate is assigned
    to that table, and its columns replace the candidate's from t on; all T
    reactions are assigned in one call and loaded in one batch, each from
    the base's state at its own interval. The reaction's cells before t
    are 0.0; the loader takes those cells from the base, and reads none of
    them from the reaction. Returns the batch:
    entry ``[t, p, j]`` of its (T, paths, T) ``path_time`` is the travel
    time of path p for departure j in the pattern spliced at t, NaN for j <
    t, before that pattern's loading starts; its ``drained`` and
    ``extrapolated`` tell whether each pattern drained and which times were
    extrapolated past its last step.
    """
    pooled = choice.remaining_demand(h_total, net.class_demands().sum(axis=0), path_set)
    reaction = choice.assign(instant_shares, pooled)  # 0.0 before each t, not read
    return dnl.load_batch(base, reaction, np.arange(grid.n_intervals))
