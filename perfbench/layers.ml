(* The per-layer metrics of a traced run, in the order BENCHMARK.json
   lists them.  Times are self times (span minus the children it covers)
   and, like counts, are given per unit of work: one check
   (cold-dragonfly), one campaign round (fault-sweep), one pass of the
   request log (serve-mix).  A layer the workload never calls reads 0. *)

let all =
  [
    ("routing.validate_s", "s");
    ("core.space_build_s", "s");
    ("core.space_states", "count");
    ("core.bwg_build_s", "s");
    ("core.bwg_vertices", "count");
    ("core.bwg_edges", "count");
    ("core.closure_words", "count");
    ("core.scan_s", "s");
    ("core.decide_s", "s");
    ("core.cycles_examined", "count");
    ("core.render_s", "s");
    ("incr.create_s", "s");
    ("incr.update_s", "s");
    ("incr.update_p50_ms", "ms");
    ("incr.fast_verdicts", "count");
    ("incr.replays", "count");
    ("incr.patched_dests", "count");
    ("incr.reemitted_dests", "count");
    ("scenario.degrade_s", "s");
    ("scenario.classify_s", "s");
    ("scenario.dirty_dests", "count");
    ("scenario.outcomes.free", "count");
    ("scenario.outcomes.disconnected", "count");
    ("scenario.outcomes.deadlocked", "count");
    ("spec.compile_s", "s");
    ("spec.digest_s", "s");
    ("serve.engine_other_s", "s");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_lookups", "count");
    ("gc.major_words", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("core.verdicts.thm1", "count");
    ("core.verdicts.thm2", "count");
    ("core.verdicts.thm3_hint", "count");
    ("core.verdicts.thm3_search", "count");
    ("core.verdicts.knot", "count");
    ("core.verdicts.true_cycle", "count");
    ("core.verdicts.no_reduction", "count");
    ("core.verdicts.other", "count");
    ("unattributed_s", "s");
    ("unattributed_pct", "%");
    ("trace.overhead_pct", "%");
  ]

(* Metrics read from the self time of a span.  The workload wraps each
   operation in an ["op"] span, so its self time is what no layer span
   covers. *)
let from_spans =
  [
    ("routing.validate_s", "routing.validate");
    ("core.space_build_s", "core.space_build");
    ("core.bwg_build_s", "core.bwg_build");
    ("core.scan_s", "core.scan");
    ("core.decide_s", "core.decide");
    ("core.render_s", "core.render");
    ("incr.create_s", "incr.create");
    ("incr.update_s", "incr.update");
    ("scenario.degrade_s", "scenario.degrade");
    ("scenario.classify_s", "scenario.classify");
    ("spec.compile_s", "spec.compile");
    ("spec.digest_s", "spec.digest");
    ("unattributed_s", "op");
  ]

(* [unit_s] is the median untraced-equivalent time of one unit (traced
   time minus shadow time); [reference_s] the same unit run untraced. *)
let metrics ~units ~unit_s ~reference_s ~(gc : Common.gc) ~extra =
  let per x = x /. float_of_int units in
  let derived =
    [
      ("gc.major_words", gc.Common.major_words);
      ("gc.minor_collections", float_of_int gc.Common.minor);
      ("gc.major_collections", float_of_int gc.Common.major);
      ( "unattributed_pct",
        100. *. per (Trace.self_time "op") /. unit_s );
      ("trace.overhead_pct", 100. *. (unit_s -. reference_s) /. reference_s);
    ]
  in
  let layers = Trace.layers () in
  List.map
    (fun (name, unit) ->
      let value =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
          match List.assoc_opt name derived with
          | Some v -> v
          | None -> (
            match List.assoc_opt name from_spans with
            | Some span -> (
              match List.assoc_opt span layers with
              | Some (_, _, self) -> per self
              | None -> 0.)
            | None -> per (Trace.counted name)))
      in
      Common.m name unit value)
    all

let print_spans () =
  Printf.printf "spans (name, calls, total s, self s):\n";
  List.iter
    (fun (name, (calls, total, self)) ->
      Printf.printf "  %-24s %8d %14.6f %14.6f\n" name calls total self)
    (Trace.layers ())
