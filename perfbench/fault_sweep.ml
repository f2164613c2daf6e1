(* fault-sweep: sweep campaigns over a storm of buffer kills on
   the reference dragonfly, every fault re-verdicted through one [Incr]
   session per round.

   It exercises the emission and closure layer differently from
   cold-dragonfly: only the dirty destinations are re-derived
   ([Bwg.dest_edges]) and disconnecting faults take the counts shortcut,
   so a cold-path gain that slows incremental re-emission or the session
   build shows up here.  An untraced round is one
   [Scenario.campaign ~mode:`Sweep] call, the program's own path.  The
   traced run makes the same incremental path (Incr.create, then per fault
   Degrade.apply, Incr.update and the campaign's classification) as
   separate public calls so each can be timed, and checks every fault it
   sweeps against an untraced campaign of the same storm.  A sampled
   fault is checked against a cold check in every run. *)

open Dfr_util
open Dfr_routing
open Dfr_core
open Dfr_scenario
open Common

let algo_name = Cold_dragonfly.algo_name
let domains = 1
(* The repository's reference storm (examples/plans/dragonfly_storm.plan):
   12 channel-buffer kills drawn with plan seed 42, 11 of which disconnect
   destinations.  The storm is the same for every seed, and the seed draws
   the order the rounds sweep it in: storms drawn from the seed differed in
   how many faults leave the network deadlock-free, and such a fault pays
   a full Theorem-1 check where a disconnecting one takes the counts
   shortcut, so the per-destination figures moved by up to 40 % between
   seeds. *)
let storm_seed = 42
let kills = 12

type outcome = Free | Disconnected | Deadlocked | Undetermined

let outcome_name = function
  | Free -> "free"
  | Disconnected -> "disconnected"
  | Deadlocked -> "deadlocked"
  | Undetermined -> "undetermined"

(* The traced run's copy of the campaign's classification of a filtered
   (skeleton-preserving) fault, whose own function the library does not
   export: a stuck-states report whose dead ends come from severed
   reachability is a disconnection, not a deadlock.  Every traced fault is
   compared with the campaign's answer. *)
let classify space ~killed ~dirty (r : Incr.result) =
  if r.Incr.exit_code = 0 then Free
  else if r.Incr.exit_code <> 1 then Undetermined
  else
    match Report_json.of_string (Json.to_string r.Incr.report) with
    | Ok { Report_json.failure_kind = Some "stuck-states"; _ } ->
      let sources = List.init (State_space.num_nodes space) Fun.id in
      if Degrade.disconnections space ~killed ~dests:dirty ~sources = [] then
        Deadlocked
      else Disconnected
    | _ -> Deadlocked

let of_campaign = function
  | Scenario.Still_free -> Free
  | Scenario.Disconnected _ -> Disconnected
  | Scenario.Deadlocked _ -> Deadlocked
  | Scenario.Undetermined _ -> Undetermined

(* The campaign's sorted union of two ascending destination lists, copied
   for the traced run and for sizing a round: moving the session from one
   killed set to the next re-derives both frontiers. *)
let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    if x < y then x :: merge xs b
    else if y < x then y :: merge a ys
    else x :: merge xs ys

type fault = {
  step : Fault.step;
  text : string;  (** the rendered report *)
  outcome : outcome;
}

(* One round through the program's campaign.  Only the rendered faults
   outlive it: holding the campaign would pin its session's space across
   the next round. *)
let campaign net algo (plan : Fault.t) steps =
  match
    Scenario.campaign ~domains ~mode:`Sweep net algo { plan with Fault.steps = steps }
  with
  | Ok c ->
    List.map2
      (fun step (o : Scenario.outcome) ->
        {
          step;
          text = Json.to_string o.Scenario.report;
          outcome = of_campaign o.Scenario.classification;
        })
      steps c.Scenario.outcomes
  | Error msg -> failwith msg

(* One traced round, the campaign's incremental path as separate calls. *)
let traced_round net algo steps =
  let session, _ =
    Trace.span "incr.create" (fun () -> Incr.create ~domains net algo)
  in
  (* Incr.update replaces the session's space, so this stays the pristine
     baseline the frontiers and the classification are computed on *)
  let space = Incr.space session in
  let prev = ref [] in
  let faults =
    List.map
      (fun (step : Fault.step) ->
        match
          Trace.span "scenario.degrade" (fun () ->
              Degrade.apply space [ step.Fault.fault ])
        with
        | Ok (Degrade.Filtered { algo = algo'; killed; dirty }) ->
          let r =
            Trace.span "incr.update" (fun () ->
                Incr.update session algo' ~dirty:(merge !prev dirty))
          in
          prev := dirty;
          let outcome =
            Trace.span "scenario.classify" (fun () ->
                classify space ~killed ~dirty r)
          in
          Trace.count "scenario.dirty_dests" (float_of_int (List.length dirty));
          Trace.count ("scenario.outcomes." ^ outcome_name outcome) 1.;
          { step; text = Json.to_string r.Incr.report; outcome }
        | Ok (Degrade.Rebuilt _) -> failwith "storm kills changed the skeleton"
        | Error msg -> failwith msg)
      steps
  in
  let c = Incr.counters session in
  Trace.count "incr.fast_verdicts" (float_of_int c.Incr.fast_verdicts);
  Trace.count "incr.replays" (float_of_int c.Incr.replays);
  Trace.count "incr.patched_dests" (float_of_int c.Incr.patched_dests);
  Trace.count "incr.reemitted_dests" (float_of_int c.Incr.reemitted_dests);
  faults

(* The destinations a sweep re-derives, summed over its faults in order:
   as the campaign moves its session from one fault to the next, each
   update re-derives the union of both faults' dirty frontiers.  This is
   the size of a round's fault work, by which its time is divided; it is
   computed on the baseline space after the timed rounds. *)
let rederived space steps =
  let prev = ref [] in
  List.fold_left
    (fun acc (step : Fault.step) ->
      match Degrade.apply space [ step.Fault.fault ] with
      | Ok (Degrade.Filtered { dirty; _ }) ->
        let n = List.length (merge !prev dirty) in
        prev := dirty;
        acc + n
      | Ok (Degrade.Rebuilt _) -> failwith "storm kills changed the skeleton"
      | Error msg -> failwith msg)
    0 steps

let run ~seed ~seconds ~traced =
  let plan =
    {
      Fault.name = Some "perfbench-storm";
      seed = storm_seed;
      steps =
        [ { Fault.at = 0; fault = Fault.Storm { count = kills; seed = None } } ];
    }
  in
  let ((entry, net), steps), setup_s =
    setup (fun () ->
        let entry, net = Cold_dragonfly.resolve () in
        match Fault.expand plan net with
        | Ok steps -> ((entry, net), Array.of_list steps)
        | Error msg -> failwith msg)
  in
  let algo = entry.Registry.algo in
  Printf.printf
    "instance: %s on %s, storm of %d buffer kills (plan seed %d) swept in a \
     seeded order per round (seed %d), domains %d\n"
    algo_name Cold_dragonfly.topology kills storm_seed seed domains;
  (* each round sweeps the whole storm in its own order, drawn from the
     seed *)
  let orders = Prng.create seed in
  let next_order () =
    let a = Array.copy steps in
    Prng.shuffle (Prng.split orders) a;
    Array.to_list a
  in
  (* Per fault: its first sweep's bytes and class.  A sweep judges every
     fault alone, so each later sweep, with another session history, must
     answer the same; only the faults so compared count as attempted. *)
  let first_sweep = Hashtbl.create kills in
  let verify faults =
    List.iter
      (fun f ->
        let op = Fault.describe net f.step.Fault.fault in
        match Hashtbl.find_opt first_sweep op with
        | None -> Hashtbl.add first_sweep op f
        | Some f0 ->
          attempt 1;
          if f0.text <> f.text || f0.outcome <> f.outcome then
            miss ~op "report or class differs from the fault's first sweep")
      faults
  in
  let rounds, rss, reference =
    if traced then begin
      (* one untraced campaign round first: the reference every traced
         fault is compared with, and the time the traced rounds' overhead
         is measured against *)
      let order = next_order () in
      let g0 = gc_now () in
      let faults, reference_s = time (fun () -> campaign net algo plan order) in
      let gc = gc_since g0 in
      verify faults;
      Trace.start ();
      let rounds =
        repeat ~seconds (fun i ->
            let order = next_order () in
            Trace.set_request i;
            let sh0 = Trace.shadow_time () in
            let faults, dt, wall_s =
              time_wall (fun () ->
                  Trace.span "op" (fun () -> traced_round net algo order))
            in
            verify faults;
            (order, faults, dt -. (Trace.shadow_time () -. sh0), wall_s))
      in
      (rounds, nan, Some (reference_s, gc))
    end
    else begin
      start_timed ();
      let rounds =
        repeat ~seconds (fun _ ->
            let order = next_order () in
            let faults, dt, wall_s =
              time_wall (fun () -> campaign net algo plan order)
            in
            verify faults;
            (order, faults, dt, wall_s))
      in
      (rounds, peak_rss_mb (), None)
    end
  in
  let faults = List.concat_map (fun (_, fs, _, _) -> fs) rounds in
  (* the baseline space, for sizing the rounds and the sampled fault *)
  let space = Trace.without (fun () -> State_space.build ~domains net algo) in
  (* a sampled fault against a cold check of the degraded instance *)
  let sample = List.nth faults (Prng.int (Prng.create seed) (List.length faults)) in
  let label = Fault.describe net sample.step.Fault.fault in
  attempt 1;
  Trace.without (fun () ->
      match Degrade.apply space [ sample.step.Fault.fault ] with
      | Ok (Degrade.Filtered { algo = algo'; _ }) ->
        let cold = Checker.check ~domains net algo' in
        if Json.to_string (Report_json.of_outcome net algo' cold) <> sample.text
        then miss ~op:label "incremental report differs from a cold check";
        let exit = Report_json.exit_code cold.Checker.verdict in
        if exit > 1 || (exit = 0) <> (sample.outcome = Free) then
          miss ~op:label "classified %s, a cold check exits %d"
            (outcome_name sample.outcome) exit
      | _ -> miss ~op:label "degrading the baseline failed");
  let count o = List.length (List.filter (fun f -> f.outcome = o) faults) in
  Printf.printf
    "outcomes over %d faults: free %d, disconnected %d, deadlocked %d, \
     undetermined %d; sampled %s\n"
    (List.length faults) (count Free) (count Disconnected) (count Deadlocked)
    (count Undetermined) label;
  let n = List.length rounds in
  let destinations = Dfr_network.Net.num_nodes net in
  let round_dests order = destinations + rederived space order in
  if not traced then begin
    print_samples "round" (List.map (fun (_, _, dt, w) -> (dt, w)) rounds);
    print_metrics
      (Printf.sprintf "workload metrics (%d rounds, %d faults):" n
         (List.length faults))
      [
        m "round_s" "s" (median (List.map (fun (_, _, dt, _) -> dt) rounds));
        m "rederived_dests_per_fault" "count"
          (float_of_int
             (List.fold_left (fun a (order, _, _, _) -> a + rederived space order) 0 rounds)
          /. float_of_int (List.length faults));
        m "failed_ratio" "ratio" (failed_ratio ());
      ];
    (* Counted per destination slice: the session build derives every
       destination, and a fault costs about the same per destination it
       re-derives, which depends on the order of the sweep.  Each figure is
       the median over the run's rounds, so a slow stretch of the host
       spoils one round, not the run. *)
    let per_slice (order, _, dt, _) = dt /. float_of_int (round_dests order) in
    [
      m "setup_s" "s" setup_s;
      m "verdicts_per_cpu_s" "1/s" (median (List.map (fun r -> 1. /. per_slice r) rounds));
      m "verdict_cpu_ms" "ms" (1000. *. median (List.map per_slice rounds));
      m "peak_rss_mb" "MB" rss;
    ]
  end
  else begin
    let reference_s, gc = Option.get reference in
    (* the session build and the per-fault calls, as the spans time them *)
    let total name = List.fold_left ( +. ) 0. (Trace.durations name) in
    let fault_s =
      total "scenario.degrade" +. total "incr.update" +. total "scenario.classify"
    in
    print_metrics
      (Printf.sprintf "workload metrics (%d traced rounds, %d faults):" n
         (List.length faults))
      [
        m "session_s" "s" (median (Trace.durations "incr.create"));
        m "faults_per_s" "1/s" (float_of_int (List.length faults) /. fault_s);
        m "fault_mean_ms" "ms" (1000. *. fault_s /. float_of_int (List.length faults));
        m "failed_ratio" "ratio" (failed_ratio ());
      ];
    (* closure words are only exported through Dfr_obs, which this workload
       runs without: count them on one more session build, outside every
       span *)
    Dfr_obs.Obs.enable ();
    Trace.without (fun () -> ignore (Incr.create ~domains net algo));
    let words = Pipeline.obs_counter "bwg.closure.words" in
    Dfr_obs.Obs.disable ();
    let _, _, unit_s, _ = List.hd rounds in
    Layers.print_spans ();
    Layers.metrics ~units:n ~unit_s ~reference_s ~gc
      ~extra:
        [
          ("core.closure_words", float_of_int words);
          ("incr.update_p50_ms", 1000. *. median (Trace.durations "incr.update"));
        ]
  end
