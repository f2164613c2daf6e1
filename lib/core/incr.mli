(** Incremental re-checking sessions for edit-heavy traffic.

    A session holds the per-destination decomposition of a checked
    instance — each destination's BWG emission sequence, its stuck /
    wait-unconnected states, and its contribution to a maintained merged
    waiting graph with a topological-rank acyclicity certificate.  An
    edit with a known dirty destination frontier ({!Dfr_spec.Diff} for
    spec edits) re-derives only those destinations and re-renders the
    verdict:

    - when the instance stays wait-connected with an acyclic graph, the
      Theorem-1 report is rendered directly from the maintained counts
      ({!Report_json.of_counts}) in O(edit) — no BWG is materialized;
    - otherwise the cached emissions are replayed through {!Bwg.replay}
      and decided by {!Checker.decide}, the cold pipeline itself.

    Either way the rendered report is bit-for-bit identical to what a
    cold [Checker.check] + [Report_json.of_outcome] of the edited
    algorithm produces (tested by randomized edit replay).  Soundness of
    the reuse requires the caller's [dirty] set to cover every
    destination whose routing relation changed; destinations outside it
    are assumed — not re-checked — to be untouched. *)

open Dfr_network
open Dfr_routing

type t

type path =
  | Fast  (** verdict rendered from maintained counts (Theorem 1) *)
  | Replay  (** cached emissions replayed through the cold pipeline *)

type result = {
  report : Dfr_util.Json.t;  (** byte-identical to the cold report *)
  exit_code : int;  (** {!Report_json.exit_code} of the verdict *)
  path : path;
  dirty_dests : int;
  reused_dests : int;
}

type counters = {
  updates : int;
  fast_verdicts : int;
  replays : int;
  patched_dests : int;
      (** dirty destinations patched by the wait-only quick path *)
  reemitted_dests : int;
      (** dirty destinations that re-ran the full emission closure *)
}

val create :
  ?witness_cap:int ->
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  t * result
(** Cold-build a session: state space, one emission capture per
    destination, merged graph, and the initial verdict.  The limits are
    pinned for the session's lifetime so every replayed verdict runs the
    pipeline under the same caps as the session's own cold baseline.
    Raises [Invalid_argument] when [Algo.validate] rejects the pair
    (as {!State_space.build} does). *)

val update : t -> Algo.t -> dirty:int list -> result
(** Re-check after an edit touching only the listed destinations.
    Within each dirty destination, an edit that leaves the routes
    untouched and empties no→yes no waiting set is patched in O(cached
    emissions); anything else re-runs that destination's emission
    closure.  The caller warrants the frontier (see module doc); spec
    edits get it from {!Dfr_spec.Diff.diff}.  The new algorithm is not
    re-validated — compiled specs are validated by elaboration, and
    programmatic callers must pass algorithms [Algo.validate] accepts.
    Raises [Invalid_argument] on an out-of-range destination or when the
    edit introduces a [reduced_waits] hint the session was built
    without. *)

val net : t -> Net.t
val algo : t -> Algo.t

val space : t -> State_space.t
(** The session's current state space (updated in place by {!update}). *)

val counters : t -> counters
