(* cold-dragonfly: one cold check of the reference instance,
   dragonfly-minimal on dragonfly:10x4x41 (11,480 buffers, 410
   destinations), then rendering its report.

   Closure building and waiting-edge emission dominate; the verdict is
   Theorem 1, so the cycle scan, classification and the Theorem-3 search
   do almost no work.  It runs at --domains 1: on a 2-core machine the
   same check spread 4.3-7.0 s at --domains 2 against 9.5-10.2 s serial.
   The instance is fixed, so the seed selects nothing here. *)

open Dfr_routing
open Dfr_core
open Common

let algo_name = "dragonfly-minimal"
let topology = "dragonfly:10x4x41"
let domains = 1

let resolve () =
  let entry = Option.get (Registry.find algo_name) in
  match Dfr_topology.Topology.of_string topology with
  | Error msg -> failwith msg
  | Ok t -> (entry, Registry.network_for entry (Some t))

let run ~seed:_ ~seconds ~traced =
  let (entry, net), setup_s = setup resolve in
  let algo = entry.Registry.algo in
  let first = ref None in
  (* only the rendered bytes outlive a check: holding the report would pin
     its state space and BWG across the next check *)
  let check i =
    let (report, text), dt, wall_s =
      time_wall (fun () -> Pipeline.check ~domains net algo)
    in
    attempt 1;
    let op = Printf.sprintf "check %d" i in
    if
      Checker.is_deadlock_free report.Checker.verdict
      <> entry.Registry.expected_deadlock_free
    then miss ~op "verdict differs from the catalogue's expected verdict";
    (match !first with
    | None -> first := Some text
    | Some t ->
      if t <> text then miss ~op "report bytes differ from the first check's");
    (dt, wall_s)
  in
  Printf.printf "instance: %s on %s (%d buffers, %d nodes), domains %d\n"
    algo_name topology (Dfr_network.Net.num_buffers net)
    (Dfr_network.Net.num_nodes net) domains;
  if not traced then begin
    start_timed ();
    let samples = repeat ~seconds check in
    let rss = peak_rss_mb () in
    let n = List.length samples in
    let check_s = median (List.map fst samples) in
    print_samples "check" samples;
    print_metrics (Printf.sprintf "workload metrics (%d checks):" n)
      [ m "check_s" "s" check_s; m "failed_ratio" "ratio" (failed_ratio ()) ];
    [
      m "setup_s" "s" setup_s;
      m "verdicts_per_cpu_s" "1/s" (1. /. check_s);
      m "verdict_cpu_ms" "ms" (1000. *. check_s);
      m "peak_rss_mb" "MB" rss;
    ]
  end
  else begin
    let g0 = gc_now () in
    let reference_s, _ = check 0 in
    let gc = gc_since g0 in
    Trace.start ();
    let units =
      repeat ~seconds (fun i ->
          Trace.set_request i;
          let sh0 = Trace.shadow_time () in
          let dt, _ = Trace.span "op" (fun () -> check (i + 1)) in
          dt -. (Trace.shadow_time () -. sh0))
    in
    (* closure words are only exported through Dfr_obs, which this workload
       runs without: count them on one more check, outside every span *)
    Dfr_obs.Obs.enable ();
    Trace.without (fun () -> ignore (Checker.check ~domains net algo));
    let words = Pipeline.obs_counter "bwg.closure.words" in
    Dfr_obs.Obs.disable ();
    let n = List.length units in
    Layers.print_spans ();
    Layers.metrics ~units:n ~unit_s:(median units) ~reference_s ~gc
      ~extra:[ ("core.closure_words", float_of_int words) ]
  end
