(* One cold check and its report, as a user of [dfcheck check --json]
   pays for it.

   Untraced, this is [Checker.check] followed by rendering, the calls a
   user makes.  Traced, it makes the calls [Checker.check] itself makes,
   in the same order (State_space.build, Bwg.build, the stuck and
   wait-connectivity scans, Checker.decide), so each layer gets its own
   span; the rendered bytes are the same either way, and the workloads
   check that they are. *)

open Dfr_util
open Dfr_core
module Obs = Dfr_obs.Obs

let obs_counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

(* [shadow] marks every layer span as a re-execution (the serving engine
   makes these calls itself, out of the benchmark's sight). *)
let check ?(shadow = false) ~domains net algo =
  if not (Trace.enabled ()) then begin
    let report = Checker.check ~domains net algo in
    (report, Json.to_string (Report_json.of_outcome net algo report))
  end
  else begin
    let span name f = Trace.span ~shadow name f in
    (* [State_space.build] validates first; this separate call measures
       that contained layer and is always shadow time *)
    Trace.span ~shadow:true "routing.validate" (fun () ->
        ignore (Dfr_routing.Algo.validate ~domains algo net));
    let space =
      span "core.space_build" (fun () -> State_space.build ~domains net algo)
    in
    let words0 = obs_counter "bwg.closure.words" in
    let bwg = span "core.bwg_build" (fun () -> Bwg.build ~domains space) in
    let words = obs_counter "bwg.closure.words" - words0 in
    let stuck, unconnected =
      span "core.scan" (fun () ->
          let stuck = State_space.stuck_states ~domains space in
          (stuck, if stuck = [] then Bwg.unconnected_states ~domains bwg else []))
    in
    let report =
      span "core.decide" (fun () ->
          Checker.decide ~domains ~stuck ~unconnected space bwg)
    in
    let text =
      span "core.render" (fun () ->
          Json.to_string (Report_json.of_outcome net algo report))
    in
    Trace.span ~shadow:true "trace.counts" (fun () ->
        let states = ref 0 in
        State_space.iter_reachable space (fun ~buf:_ ~dest:_ -> incr states);
        let g = Bwg.graph bwg in
        Trace.count "core.space_states" (float_of_int !states);
        Trace.count "core.bwg_vertices"
          (float_of_int (Dfr_graph.Digraph.num_vertices g));
        Trace.count "core.bwg_edges" (float_of_int (Dfr_graph.Digraph.num_edges g));
        Trace.count "core.cycles_examined"
          (float_of_int (Option.value ~default:0 report.Checker.bwg_cycles));
        if Obs.enabled () then Trace.count "core.closure_words" (float_of_int words));
    (report, text)
  end
