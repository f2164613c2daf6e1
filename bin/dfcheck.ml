(* dfcheck: command-line front end for the buffer-waiting-graph toolkit.

   Subcommands:
     list          catalogue of routing algorithms
     check         deadlock-freedom verdict for an algorithm on a network
     bwg           export the buffer waiting graph as Graphviz DOT
     adaptiveness  Figure 3: degree of adaptiveness vs hypercube dimension
     matrix        verdict matrix: algorithms x proof techniques (E6)
     simulate      flit-level simulation with a synthetic workload
     scenario      fault-plan campaigns, adversarial traffic, latency bounds
     serve         batched NDJSON checking service (stdio or TCP)
     client        one-shot scripting client for a TCP serve instance *)

open Cmdliner
open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim
open Dfr_serve

(* ------------------------------------------------------------------ *)
(* shared argument parsing                                             *)

let parse_topology s =
  (* shared with the spec language's `topology' clause *)
  match Topology.of_string s with
  | Ok t -> Ok t
  | Error msg -> Error (`Msg msg)

let topology_conv =
  Arg.conv ((fun s -> parse_topology s), fun fmt t -> Format.fprintf fmt "%s" (Topology.name t))

let topo_arg =
  let doc =
    "Topology: hypercube:N, mesh:AxBx..., torus:AxBx... or ring:N.  Defaults \
     to a small topology fitting the algorithm."
  in
  Arg.(value & opt (some topology_conv) None & info [ "t"; "topology" ] ~doc)

let algo_arg =
  let doc = "Routing algorithm (see `dfcheck list')." in
  Arg.(required & opt (some string) None & info [ "a"; "algorithm" ] ~doc)

let lookup name =
  match Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown algorithm %S; known: %s" name
         (String.concat ", " (Registry.names ())))

(* Exit codes (kept machine-checkable, see test/cli_exit_codes.sh):
     0  deadlock-free / success
     1  deadlock found (or, for audit, a catalogue mismatch)
     2  usage error: unknown algorithm, malformed spec, bad command line
     3  verdict Unknown (a cap or budget was hit)
   The verdict->code mapping itself lives in Report_json.exit_code so the
   serve protocol reports the same numbers. *)

(* ------------------------------------------------------------------ *)
(* observability: --trace / --metrics on the checking subcommands      *)

module Obs = Dfr_obs.Obs

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event timeline of this run to $(docv) \
           (open in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect counters and gauges; JSON reports gain a $(b,metrics) \
           field, text output is followed by a metrics block.")

let obs_setup ~trace ~metrics = if trace <> None || metrics then Obs.enable ()

let obs_teardown ~trace =
  match trace with
  | Some file ->
    Obs.write_trace file;
    Printf.eprintf "wrote trace %s\n%!" file
  | None -> ()

(* the report parser ignores unknown fields, so appending is compatible *)
let with_metrics ~metrics doc =
  match (metrics, doc) with
  | true, Dfr_util.Json.Obj fields ->
    Dfr_util.Json.Obj (fields @ [ ("metrics", Obs.metrics_json ()) ])
  | _ -> doc

let print_text_metrics ~metrics =
  if metrics then
    Printf.printf "metrics:\n%s\n"
      (Dfr_util.Json.to_string_pretty (Obs.metrics_json ()))

(* The one place a report becomes terminal output: `check', `spec check'
   and (through Report_json.of_outcome directly) the serve engine all
   agree on the JSON shape and the exit code. *)
let run_check_report ~name ~replay ~certificate ~json ~domains ~trace ~metrics
    net algo =
  obs_setup ~trace ~metrics;
  match Checker.check_result ~domains net algo with
  | Error msg ->
    (* the algorithm rejects the network (e.g. hop-class on a mesh whose
       diameter needs more buffer classes): a usage error, not a crash *)
    obs_teardown ~trace;
    Printf.eprintf "dfcheck: %s on %s: %s\n" name (Net.name net) msg;
    2
  | Ok report -> (
    if json then
      print_endline
        (Dfr_util.Json.to_string_pretty
           (Report_json.of_outcome
              ?metrics:(if metrics then Some (Obs.metrics_json ()) else None)
              net algo report))
    else if certificate then Certificate.print net algo report
    else begin
      Format.printf "%s on %s:@.  %a@." name (Net.name net)
        (Checker.pp_verdict net) report.Checker.verdict;
      print_text_metrics ~metrics
    end;
    (match report.Checker.verdict with
    | Checker.Deadlock_possible failure when replay ->
      (match Dfr_scenario.Scenario.replay net algo failure with
      | Some true -> Format.printf "  replay: deadlock confirmed in simulation@."
      | Some false -> Format.printf "  replay: configuration drained (not confirmed)@."
      | None -> Format.printf "  replay: nothing to replay for this failure@.")
    | _ -> ());
    obs_teardown ~trace;
    Report_json.exit_code report.Checker.verdict)

(* ------------------------------------------------------------------ *)
(* list                                                                *)

let list_cmd =
  let run json =
    if json then
      print_endline (Dfr_util.Json.to_string_pretty (Protocol.catalogue_json ()))
    else
      List.iter
        (fun (e : Registry.entry) ->
          Printf.printf "%-24s %-10s %s\n" e.Registry.name
            (match e.Registry.expected_deadlock_free with
            | Some true -> "[free]"
            | Some false -> "[deadlock]"
            | None -> "[?]")
            e.Registry.description)
        Registry.all;
    0
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Print the catalogue as JSON (the same document a serve \
                instance returns for op $(b,catalogue)).")
  in
  Cmd.v (Cmd.info "list" ~doc:"List the routing algorithms in the catalogue")
    Term.(const run $ json)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_run name topo replay certificate json domains trace metrics =
  match lookup name with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok e ->
    let net = Registry.network_for e topo in
    run_check_report ~name:e.Registry.name ~replay ~certificate ~json ~domains
      ~trace ~metrics net e.Registry.algo

let check_cmd =
  let replay =
    Arg.(value & flag & info [ "replay" ] ~doc:"Replay a deadlock verdict in the simulator.")
  in
  let certificate =
    Arg.(value & flag
         & info [ "certificate" ] ~doc:"Print a full proof certificate.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ]
             ~doc:
               "Build the BWG and classify its cycles in parallel with this \
                many OCaml domains.")
  in
  Cmd.v (Cmd.info "check" ~doc:"Decide deadlock freedom with the BWG checker")
    Term.(const check_run $ algo_arg $ topo_arg $ replay $ certificate $ json
          $ domains $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* bwg: DOT export                                                     *)

let bwg_run name topo output =
  match lookup name with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok e ->
    let net = Registry.network_for e topo in
    let space = State_space.build net e.Registry.algo in
    let bwg = Bwg.build space in
    let dot = Bwg.to_dot bwg in
    (match output with
    | None -> print_string dot
    | Some file ->
      let oc = open_out file in
      output_string oc dot;
      close_out oc;
      Printf.printf "wrote %s (%d vertices, %d edges)\n" file
        (Dfr_graph.Digraph.num_vertices (Bwg.graph bwg))
        (Dfr_graph.Digraph.num_edges (Bwg.graph bwg)));
    0

let bwg_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output DOT file.")
  in
  Cmd.v (Cmd.info "bwg" ~doc:"Export the buffer waiting graph as Graphviz DOT")
    Term.(const bwg_run $ algo_arg $ topo_arg $ output)

(* ------------------------------------------------------------------ *)
(* adaptiveness (Figure 3)                                             *)

let adaptiveness_run max_n =
  let algos = [ "ecube"; "duato"; "efa" ] in
  Printf.printf "# Degree of adaptiveness (Figure 3), buffer-level paths\n";
  Printf.printf "%-12s" "dimension";
  List.iter (fun a -> Printf.printf " %12s" a) algos;
  print_newline ();
  let sweeps =
    List.map
      (fun a ->
        match Dfr_adaptiveness.Hypercube_adaptiveness.rule_of_name a with
        | Some r -> Dfr_adaptiveness.Hypercube_adaptiveness.sweep r ~max_n
        | None -> assert false)
      algos
  in
  for n = 2 to max_n do
    Printf.printf "%-12d" n;
    List.iter (fun s -> Printf.printf " %11.2f%%" (100.0 *. s.(n))) sweeps;
    print_newline ()
  done;
  0

let adaptiveness_cmd =
  let max_n =
    Arg.(value & opt int 12 & info [ "max-dim" ] ~doc:"Largest hypercube dimension.")
  in
  Cmd.v
    (Cmd.info "adaptiveness" ~doc:"Reproduce Figure 3 (degree of adaptiveness)")
    Term.(const adaptiveness_run $ max_n)

(* ------------------------------------------------------------------ *)
(* matrix: proof techniques side by side (E6)                          *)

let matrix_run topo =
  Printf.printf "%-24s %-12s %-14s %-12s %s\n" "algorithm" "dally-seitz"
    "duato-cond" "bwg(paper)" "network";
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e topo in
      let space = State_space.build net e.Registry.algo in
      let ds = if Cdg.deadlock_free space then "certified" else "-" in
      let dc = if Duato_condition.deadlock_free space then "certified" else "-" in
      let bwg =
        match Checker.verdict net e.Registry.algo with
        | Checker.Deadlock_free _ -> "certified"
        | Checker.Deadlock_possible _ -> "deadlock"
        | Checker.Unknown _ -> "unknown"
      in
      Printf.printf "%-24s %-12s %-14s %-12s %s\n" e.Registry.name ds dc bwg
        (Net.name net))
    Registry.all;
  0

let matrix_cmd =
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Verdict matrix: every algorithm under three proof techniques")
    Term.(const matrix_run $ topo_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let parse_pattern = function
  | "uniform" -> Ok Traffic.Uniform
  | "transpose" -> Ok Traffic.Transpose
  | "complement" -> Ok Traffic.Bit_complement
  | "shuffle" -> Ok Traffic.Shuffle
  | s when String.length s > 8 && String.sub s 0 8 = "hotspot:" -> (
    match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
    | Some h -> Ok (Traffic.Hotspot h)
    | None -> Error (`Msg "hotspot:N"))
  | _ -> Error (`Msg "expected uniform|transpose|complement|shuffle|hotspot:N")

let pattern_conv = Arg.conv (parse_pattern, fun fmt _ -> Format.fprintf fmt "<pattern>")

let simulate_run name topo pattern rate length horizon seed router json trace
    metrics =
  match lookup name with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok e -> (
    let net = Registry.network_for e topo in
    let nodes = Net.num_nodes net in
    (* user-supplied hotspot nodes are range-checked here so a bad value
       is a usage error (exit 2), not an out-of-bounds injection *)
    match pattern with
    | Traffic.Hotspot h when h < 0 || h >= nodes ->
      Printf.eprintf "hotspot node %d out of range 0..%d for %s\n" h (nodes - 1)
        (Net.name net);
      2
    | _ ->
    obs_setup ~trace ~metrics;
    let t =
      match Net.topology net with
      | Some t -> t
      | None -> failwith "simulate: custom networks not supported"
    in
    let traffic = Traffic.generate t ~pattern ~rate ~length ~horizon ~seed in
    if not json then
      Printf.printf "workload: %d packets over %d cycles\n" (Traffic.count traffic)
        horizon;
    let deadlocked, doc =
      match Net.switching net with
      | Net.Wormhole when router ->
        let o = Router_sim.run net e.Registry.algo traffic in
        if not json then Format.printf "%a@." Router_sim.pp_outcome o;
        (Router_sim.is_deadlocked o, Sim_report.router o ~nodes)
      | Net.Wormhole ->
        let o = Wormhole_sim.run net e.Registry.algo traffic in
        if not json then Format.printf "%a@." Wormhole_sim.pp_outcome o;
        (Wormhole_sim.is_deadlocked o, Sim_report.wormhole o ~nodes)
      | Net.Store_and_forward | Net.Virtual_cut_through ->
        let o = Saf_sim.run net e.Registry.algo traffic in
        if not json then Format.printf "%a@." Saf_sim.pp_outcome o;
        (Saf_sim.is_deadlocked o, Sim_report.saf o ~nodes)
    in
    if json then
      print_endline (Dfr_util.Json.to_string_pretty (with_metrics ~metrics doc))
    else print_text_metrics ~metrics;
    obs_teardown ~trace;
    if deadlocked then 1 else 0)

let simulate_cmd =
  let pattern =
    Arg.(value & opt pattern_conv Traffic.Uniform & info [ "p"; "pattern" ] ~doc:"Traffic pattern.")
  in
  let rate =
    Arg.(value & opt float 0.05 & info [ "r"; "rate" ] ~doc:"Packets per node per cycle.")
  in
  let length = Arg.(value & opt int 8 & info [ "l"; "length" ] ~doc:"Packet length in flits.") in
  let horizon =
    Arg.(value & opt int 2000 & info [ "horizon" ] ~doc:"Injection horizon in cycles.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let router =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Use the pipelined credit-based router model instead of \
                   the plain flit simulator.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the outcome as JSON.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the flit-level simulator on a workload")
    Term.(const simulate_run $ algo_arg $ topo_arg $ pattern $ rate $ length
          $ horizon $ seed $ router $ json $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* scenario: fault campaigns, adversarial traffic, latency bounds      *)

(* also the spec section's loader, hoisted here because scenario shares it *)
let with_spec file k =
  match Dfr_spec.Spec.load_file file with
  | Error e ->
    prerr_endline (Dfr_spec.Spec.error_to_string ~file e);
    2
  | Ok spec -> k spec

module Fault = Dfr_scenario.Fault
module Degrade = Dfr_scenario.Degrade
module Latency = Dfr_scenario.Latency
module Scenario = Dfr_scenario.Scenario

type scenario_traffic =
  | T_none
  | T_pattern of Traffic.pattern  (** open-loop Bernoulli arrivals *)
  | T_bursty of int  (** leaky-bucket bursts of this depth, uniform dests *)
  | T_storm of int list  (** multi-hotspot storm at these destinations *)
  | T_permutation
  | T_seeking  (** scripted packets aimed at the final verdict's witness *)

let parse_scenario_traffic s =
  let ints csv =
    let parts = String.split_on_char ',' csv in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
        match int_of_string_opt p with
        | Some n -> go (n :: acc) rest
        | None -> None)
    in
    go [] parts
  in
  match s with
  | "none" -> Ok T_none
  | "permutation" -> Ok T_permutation
  | "seeking" -> Ok T_seeking
  | s when String.length s > 7 && String.sub s 0 7 = "bursty:" -> (
    match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
    | Some b -> Ok (T_bursty b)
    | None -> Error (`Msg "bursty:BURST"))
  | s when String.length s > 6 && String.sub s 0 6 = "storm:" -> (
    match ints (String.sub s 6 (String.length s - 6)) with
    | Some ds -> Ok (T_storm ds)
    | None -> Error (`Msg "storm:D1,D2,..."))
  | s -> (
    match parse_pattern s with
    | Ok p -> Ok (T_pattern p)
    | Error _ ->
      Error
        (`Msg
           "expected none|uniform|transpose|complement|shuffle|hotspot:N|\
            bursty:B|storm:D1,D2,...|permutation|seeking"))

let scenario_traffic_conv =
  Arg.conv (parse_scenario_traffic, fun fmt _ -> Format.fprintf fmt "<traffic>")

let pp_classification fmt = function
  | Scenario.Still_free -> Format.fprintf fmt "free"
  | Scenario.Deadlocked { kind; _ } -> Format.fprintf fmt "deadlock (%s)" kind
  | Scenario.Disconnected pairs ->
    Format.fprintf fmt "disconnected (%d destination%s cut)" (List.length pairs)
      (if List.length pairs = 1 then "" else "s")
  | Scenario.Undetermined reason -> Format.fprintf fmt "unknown (%s)" reason

let print_campaign_text (c : Scenario.campaign) =
  Format.printf "plan %s on %s / %s: baseline exit %d@."
    (Option.value c.Scenario.plan_name ~default:"<unnamed>")
    c.Scenario.network c.Scenario.algorithm c.Scenario.baseline_exit;
  List.iter
    (fun (o : Scenario.outcome) ->
      Format.printf "  at %-3d %s: %a (exit %d)@." o.Scenario.at
        o.Scenario.label pp_classification o.Scenario.classification
        o.Scenario.exit_code)
    c.Scenario.outcomes;
  Format.printf "overall exit %d@." c.Scenario.exit_code

(* The degraded instance left standing after the whole plan — what the
   traffic and latency stages run against. *)
let final_instance (c : Scenario.campaign) net algo plan =
  match Fault.expand plan net with
  | Error msg -> Error msg
  | Ok steps -> (
    match steps with
    | [] -> Ok (net, algo)
    | _ -> (
      match
        Degrade.apply c.Scenario.space
          (List.map (fun (s : Fault.step) -> s.Fault.fault) steps)
      with
      | Error msg -> Error msg
      | Ok (Degrade.Filtered { algo = algo'; _ }) -> Ok (net, algo')
      | Ok (Degrade.Rebuilt { net = net'; algo = algo'; _ }) -> Ok (net', algo')))

(* Build the requested workload against the (possibly degraded) final
   instance.  Generator validation errors (zero-length packets, an empty
   or out-of-range storm destination set) raise [Invalid_argument], which
   the caller maps to a usage error — exit 2, pinned by
   test/cli_exit_codes.sh. *)
let scenario_workload ~traffic ~rate ~length ~horizon ~seed ~report fnet =
  let topo () =
    match Net.topology fnet with
    | Some t -> t
    | None ->
      invalid_arg
        "this traffic kind needs a topology-backed network (the plan's node \
         kills rebuild a custom network)"
  in
  match traffic with
  | T_none -> None
  | T_pattern p ->
    Some (Traffic.generate (topo ()) ~pattern:p ~rate ~length ~horizon ~seed)
  | T_bursty burst ->
    Some
      (Traffic.bursty (topo ()) ~pattern:Traffic.Uniform ~burst ~rate ~length
         ~horizon ~seed)
  | T_storm dests ->
    Some (Traffic.storm (topo ()) ~dests ~rate ~length ~horizon ~seed)
  | T_permutation -> Some (Traffic.permutation (topo ()) ~count:1 ~length ~seed)
  | T_seeking -> (
    let report = Lazy.force report in
    match report.Checker.verdict with
    | Checker.Deadlock_possible failure -> (
      match
        Scenario.seeking_traffic report.Checker.space ~length failure
      with
      | Some t -> Some t
      | None ->
        invalid_arg
          "the final verdict's failure carries no packet configuration to \
           aim traffic at")
    | _ ->
      invalid_arg
        "--traffic seeking needs a deadlock verdict on the final degraded \
         instance")

let scenario_exec ~mode ~plan_file ~spec_file ~algo_name ~topo ~cold ~domains
    ~traffic ~rate ~length ~horizon ~seed ~latency ~json ~trace ~metrics =
  let with_instance k =
    match (spec_file, algo_name) with
    | Some file, None ->
      with_spec file (fun spec ->
          k spec.Dfr_spec.Spec.net spec.Dfr_spec.Spec.algo)
    | None, Some name -> (
      match lookup name with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok e -> k (Registry.network_for e topo) e.Registry.algo)
    | _ ->
      prerr_endline
        "dfcheck scenario: give exactly one of --spec FILE or -a NAME";
      2
  in
  if domains < 1 then begin
    prerr_endline "dfcheck scenario: --domains must be >= 1";
    2
  end
  else
    with_instance (fun net algo ->
        match Fault.load_file plan_file with
        | Error msg ->
          prerr_endline ("dfcheck scenario: " ^ msg);
          2
        | Ok plan -> (
          obs_setup ~trace ~metrics;
          let finish code =
            obs_teardown ~trace;
            code
          in
          match Scenario.campaign ~domains ~cold ~mode net algo plan with
          | exception Invalid_argument msg ->
            prerr_endline ("dfcheck scenario: " ^ msg);
            finish 2
          | Error msg ->
            prerr_endline ("dfcheck scenario: " ^ msg);
            finish 2
          | Ok c ->
            let extras () =
              if traffic = T_none && not latency then
                Ok ([], c.Scenario.exit_code)
              else
                match final_instance c net algo plan with
                | Error msg -> Error msg
                | Ok (fnet, falgo) -> (
                  (* one cold check of the final instance feeds the
                     seeking workload and the latency analyzer *)
                  let freport = lazy (Checker.check ~domains fnet falgo) in
                  match
                    scenario_workload ~traffic ~rate ~length ~horizon ~seed
                      ~report:freport fnet
                  with
                  | exception Invalid_argument msg -> Error msg
                  | workload ->
                    let sim =
                      Option.map
                        (fun w ->
                          match Net.switching fnet with
                          | Net.Wormhole -> (
                            let o = Wormhole_sim.run fnet falgo w in
                            ( Wormhole_sim.is_deadlocked o,
                              Sim_report.wormhole o ~nodes:(Net.num_nodes fnet),
                              match o with
                              | Wormhole_sim.Completed stats ->
                                Some (Stats.percentile_latency stats 1.0)
                              | _ -> None ))
                          | Net.Store_and_forward | Net.Virtual_cut_through ->
                            let o = Saf_sim.run fnet falgo w in
                            ( Saf_sim.is_deadlocked o,
                              Sim_report.saf o ~nodes:(Net.num_nodes fnet),
                              None ))
                        workload
                    in
                    let lat =
                      if not latency then None
                      else begin
                        let report = Lazy.force freport in
                        let bounds =
                          match report.Checker.verdict with
                          | Checker.Deadlock_free _ ->
                            Latency.analyze report.Checker.space
                              report.Checker.bwg
                              (Option.value workload ~default:[])
                          | _ ->
                            {
                              Latency.defined = false;
                              reason =
                                Some
                                  "the final degraded instance is not \
                                   deadlock-free";
                              packets = 0;
                              components = 0;
                              largest_component = 0;
                              p50 = 0;
                              p99 = 0;
                              p100 = 0;
                            }
                        in
                        Some bounds
                      end
                    in
                    let fields =
                      (match sim with
                      | None -> []
                      | Some (_, doc, _) -> [ ("traffic", doc) ])
                      @
                      match (lat, sim) with
                      | None, _ -> []
                      | Some b, Some (_, _, Some observed) ->
                        [
                          ( "latency",
                            Dfr_util.Json.Obj
                              ((match Latency.to_json b with
                               | Dfr_util.Json.Obj fs -> fs
                               | j -> [ ("bounds", j) ])
                              @ [
                                  ("observed_p100", Dfr_util.Json.Int observed);
                                  ( "sound",
                                    Dfr_util.Json.Bool
                                      ((not b.Latency.defined)
                                      || b.Latency.p100 >= observed) );
                                ]) );
                        ]
                      | Some b, _ -> [ ("latency", Latency.to_json b) ]
                    in
                    let sim_exit =
                      match sim with Some (true, _, _) -> 1 | _ -> 0
                    in
                    Ok (fields, max c.Scenario.exit_code sim_exit))
            in
            (match extras () with
            | Error msg ->
              prerr_endline ("dfcheck scenario: " ^ msg);
              finish 2
            | Ok (extra, exit_code) ->
              (if json then
                 let doc =
                   match Scenario.campaign_to_json c with
                   | Dfr_util.Json.Obj fields ->
                     Dfr_util.Json.Obj (fields @ extra)
                   | j -> j
                 in
                 print_endline
                   (Dfr_util.Json.to_string_pretty (with_metrics ~metrics doc))
               else begin
                 print_campaign_text c;
                 List.iter
                   (fun (k, v) ->
                     Format.printf "%s:@.%s@." k
                       (Dfr_util.Json.to_string_pretty v))
                   extra;
                 print_text_metrics ~metrics
               end);
              finish exit_code)))

let scenario_cmd =
  let plan_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "plan" ] ~docv:"FILE" ~doc:"Fault plan (.plan file).")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Instance from a .dfr spec instead of the catalogue.")
  in
  let algo_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "a"; "algorithm" ] ~doc:"Catalogue algorithm (see `dfcheck list').")
  in
  let cold =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Re-check every fault from scratch instead of riding one \
             incremental session.  Same bytes, k times the cost — the \
             determinism tests diff the two.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~doc:"Checker parallelism, as in `check'.")
  in
  let traffic =
    Arg.(
      value
      & opt scenario_traffic_conv T_none
      & info [ "traffic" ] ~docv:"KIND"
          ~doc:
            "Workload to simulate on the final degraded instance: \
             $(b,uniform)|$(b,transpose)|$(b,complement)|$(b,shuffle)|\
             $(b,hotspot:N)|$(b,bursty:B)|$(b,storm:D1,D2,...)|\
             $(b,permutation)|$(b,seeking)|$(b,none).")
  in
  let rate =
    Arg.(
      value & opt float 0.05
      & info [ "r"; "rate" ] ~doc:"Packets per node per cycle.")
  in
  let length =
    Arg.(value & opt int 8 & info [ "l"; "length" ] ~doc:"Packet length in flits.")
  in
  let horizon =
    Arg.(
      value & opt int 2000 & info [ "horizon" ] ~doc:"Injection horizon in cycles.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let latency =
    Arg.(
      value & flag
      & info [ "latency" ]
          ~doc:
            "Analytic worst-case latency bounds for the workload on the \
             final degraded instance, cross-checked against the simulated \
             p100 when both exist.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the campaign as JSON.")
  in
  let run mode plan_file spec_file algo_name topo cold domains traffic rate
      length horizon seed latency json trace metrics =
    scenario_exec ~mode ~plan_file ~spec_file ~algo_name ~topo ~cold ~domains
      ~traffic ~rate ~length ~horizon ~seed ~latency ~json ~trace ~metrics
  in
  let term mode =
    Term.(
      const (run mode) $ plan_arg $ spec_arg $ algo_name $ topo_arg $ cold
      $ domains $ traffic $ rate $ length $ horizon $ seed $ latency $ json
      $ trace_arg $ metrics_arg)
  in
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Fault campaigns: degrade a checked instance along a fault plan, \
          re-check each step (incrementally where the buffer skeleton \
          survives), classify the outcomes, and optionally stress the \
          degraded network with adversarial traffic and worst-case latency \
          bounds.")
    [
      Cmd.v
        (Cmd.info "sweep"
           ~doc:
             "Check every fault of the plan independently against the \
              baseline (k faults, one incremental session).")
        (term `Sweep);
      Cmd.v
        (Cmd.info "run"
           ~doc:
             "Replay the plan's timeline: faults accumulate, one re-check \
              per tick, then traffic/latency against the end state.")
        (term `Sequence);
    ]

(* ------------------------------------------------------------------ *)
(* spec: user-supplied .dfr networks, no recompilation needed          *)

let spec_file_arg =
  let doc = "Network/routing specification (.dfr file; see DESIGN.md for the grammar)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* `spec check --base OLD.dfr NEW.dfr`: build an incremental session on
   the base, re-derive only the destinations the edit touched, and print
   the JSON report — byte-identical to a cold `spec check --json` of the
   edited file (Incr's contract).  The delta summary goes to stderr so
   stdout stays a parseable report either way. *)
let spec_check_delta ~base_file ~file ~domains ~trace ~metrics =
  with_spec base_file (fun bspec ->
      with_spec file (fun spec ->
          obs_setup ~trace ~metrics;
          let finish code =
            obs_teardown ~trace;
            code
          in
          let cold reason =
            Printf.eprintf "delta: %s; checking cold\n%!" reason;
            let report =
              Checker.check ~domains spec.Dfr_spec.Spec.net spec.Dfr_spec.Spec.algo
            in
            print_endline
              (Dfr_util.Json.to_string_pretty
                 (Report_json.of_outcome spec.Dfr_spec.Spec.net
                    spec.Dfr_spec.Spec.algo report));
            finish (Report_json.exit_code report.Checker.verdict)
          in
          let bval = bspec.Dfr_spec.Spec.elaborated.Dfr_spec.Elaborate.spec in
          let eval = spec.Dfr_spec.Spec.elaborated.Dfr_spec.Elaborate.spec in
          match Dfr_spec.Diff.diff bval eval with
          | Dfr_spec.Diff.Incompatible reason -> cold ("base incompatible: " ^ reason)
          | Dfr_spec.Diff.Frontier f ->
            let session, _ =
              Incr.create ~domains bspec.Dfr_spec.Spec.net bspec.Dfr_spec.Spec.algo
            in
            (match Incr.update session spec.Dfr_spec.Spec.algo ~dirty:f.Dfr_spec.Diff.dirty with
            | exception Invalid_argument msg -> cold msg
            | res ->
              Printf.eprintf "delta: %s, %d/%d destinations re-derived\n%!"
                (match res.Incr.path with
                | Incr.Fast -> "fast path"
                | Incr.Replay -> "replay path")
                res.Incr.dirty_dests
                (res.Incr.dirty_dests + res.Incr.reused_dests);
              print_endline (Dfr_util.Json.to_string_pretty res.Incr.report);
              finish res.Incr.exit_code)))

let spec_check_run file base replay certificate json domains trace metrics =
  match base with
  | Some base_file -> spec_check_delta ~base_file ~file ~domains ~trace ~metrics
  | None ->
    with_spec file (fun spec ->
        let net = spec.Dfr_spec.Spec.net and algo = spec.Dfr_spec.Spec.algo in
        run_check_report ~name:algo.Algo.name ~replay ~certificate ~json ~domains
          ~trace ~metrics net algo)

let spec_check_cmd =
  let replay =
    Arg.(value & flag & info [ "replay" ] ~doc:"Replay a deadlock verdict in the simulator.")
  in
  let certificate =
    Arg.(value & flag & info [ "certificate" ] ~doc:"Print a full proof certificate.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.") in
  let base =
    Arg.(value & opt (some file) None
         & info [ "base" ] ~docv:"BASE"
             ~doc:
               "Check incrementally against $(docv), an earlier version of \
                the spec: only destinations whose routing the edit touched \
                are re-derived.  Prints the JSON report (bit-identical to a \
                cold $(b,--json) check) on stdout and a delta summary on \
                stderr; $(b,--replay) and $(b,--certificate) are ignored.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Build the BWG and classify its cycles in parallel with this many OCaml domains.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Decide deadlock freedom for a spec-defined network")
    Term.(const spec_check_run $ spec_file_arg $ base $ replay $ certificate $ json
          $ domains $ trace_arg $ metrics_arg)

let write_or_print output what content =
  match output with
  | None -> print_string content
  | Some file ->
    let oc = open_out file in
    output_string oc content;
    close_out oc;
    Printf.printf "wrote %s (%s)\n" file what

let spec_bwg_run file output =
  with_spec file (fun spec ->
      let net = spec.Dfr_spec.Spec.net and algo = spec.Dfr_spec.Spec.algo in
      let space = State_space.build net algo in
      let bwg = Bwg.build space in
      let g = Bwg.graph bwg in
      write_or_print output
        (Printf.sprintf "%d vertices, %d edges" (Dfr_graph.Digraph.num_vertices g)
           (Dfr_graph.Digraph.num_edges g))
        (Bwg.to_dot bwg);
      0)

let spec_bwg_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output DOT file.")
  in
  Cmd.v
    (Cmd.info "bwg" ~doc:"Export a spec-defined network's buffer waiting graph as DOT")
    Term.(const spec_bwg_run $ spec_file_arg $ output)

let spec_dot_run file bwg_prime output =
  with_spec file (fun spec ->
      if bwg_prime then begin
        (* the overlay needs a synthesized BWG': full BWG with the kept
           wait edges solid and the removed ones dashed *)
        let net = spec.Dfr_spec.Spec.net and algo = spec.Dfr_spec.Spec.algo in
        let space = State_space.build net algo in
        match Dfr_synth.Synth.synthesize space with
        | Dfr_synth.Synth.Synthesized s ->
          write_or_print output
            (Printf.sprintf "BWG' overlay, %d wait entries removed"
               (List.length s.Dfr_synth.Synth.removed))
            (Dfr_synth.Synth.bwg_prime_dot s);
          0
        | Dfr_synth.Synth.Already_free _ -> assert false
        | Dfr_synth.Synth.Unsat msg ->
          Printf.eprintf "no BWG' exists: %s\n" msg;
          1
        | Dfr_synth.Synth.Gave_up msg ->
          Printf.eprintf "synthesis gave up: %s\n" msg;
          3
      end
      else begin
        write_or_print output
          (Printf.sprintf "%d nodes" (Net.num_nodes spec.Dfr_spec.Spec.net))
          (Dfr_spec.Spec.to_dot spec);
        0
      end)

let spec_dot_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output DOT file.")
  in
  let bwg_prime =
    Arg.(value & flag
         & info [ "bwg-prime" ]
             ~doc:
               "Instead of the channel graph, render the buffer waiting \
                graph with a synthesized BWG' overlaid: kept wait edges \
                solid, removed ones dashed (exit 1 when no BWG' exists, 3 \
                when synthesis gives up).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a spec-defined network's channel graph as DOT")
    Term.(const spec_dot_run $ spec_file_arg $ bwg_prime $ output)

let spec_cmd =
  Cmd.group
    (Cmd.info "spec"
       ~doc:
         "Verify user-supplied networks: parse a .dfr specification and run the unchanged \
          checker pipeline on it")
    [ spec_check_cmd; spec_bwg_cmd; spec_dot_cmd ]

(* ------------------------------------------------------------------ *)
(* audit: the whole catalogue, optionally as JSON                      *)

let audit_run json domains trace metrics =
  obs_setup ~trace ~metrics;
  let reports =
    List.map
      (fun (e : Registry.entry) ->
        let net = Registry.network_for e None in
        (e, net, Checker.check ~domains net e.Registry.algo))
      Registry.all
  in
  if json then begin
    let items =
      List.map
        (fun ((e : Registry.entry), net, report) ->
          Dfr_util.Json.Obj
            [
              ("name", Dfr_util.Json.String e.Registry.name);
              ( "expected",
                match e.Registry.expected_deadlock_free with
                | Some b -> Dfr_util.Json.Bool b
                | None -> Dfr_util.Json.Null );
              ("report", Report_json.of_report net e.Registry.algo report);
            ])
        reports
    in
    let doc =
      (* --metrics changes the top level from a list to an object so the
         aggregate counters have somewhere to live *)
      if metrics then
        Dfr_util.Json.Obj
          [ ("audit", Dfr_util.Json.List items);
            ("metrics", Obs.metrics_json ()) ]
      else Dfr_util.Json.List items
    in
    print_endline (Dfr_util.Json.to_string_pretty doc)
  end
  else
    List.iter
      (fun ((e : Registry.entry), net, report) ->
        let ok =
          match (e.Registry.expected_deadlock_free, report.Checker.verdict) with
          | Some true, Checker.Deadlock_free _ -> "ok"
          | Some false, Checker.Deadlock_possible _ -> "ok"
          | None, _ -> "?"
          | _ -> "MISMATCH"
        in
        Format.printf "%-10s %-24s %a@." ok e.Registry.name
          (Checker.pp_verdict net) report.Checker.verdict)
      reports;
  if not json then print_text_metrics ~metrics;
  obs_teardown ~trace;
  let mismatches =
    List.filter
      (fun ((e : Registry.entry), _, report) ->
        match (e.Registry.expected_deadlock_free, report.Checker.verdict) with
        | Some true, Checker.Deadlock_free _ | Some false, Checker.Deadlock_possible _
        | None, _ ->
          false
        | _ -> true)
      reports
  in
  if mismatches = [] then 0 else 1

let audit_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the audit as JSON.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ]
             ~doc:"Run each check in parallel with this many OCaml domains.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Check the entire catalogue against its expected verdicts")
    Term.(const audit_run $ json $ domains $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: differential campaign of checker vs. simulators               *)

let fuzz_run trials seed max_nodes domains out_dir trace metrics =
  obs_setup ~trace ~metrics;
  let summary =
    Dfr_fuzz.Fuzz.run
      {
        Dfr_fuzz.Fuzz.default_config with
        trials;
        seed;
        max_nodes;
        domains;
      }
  in
  Format.printf "fuzz: %d trials, seed %d, max-nodes %d@." trials seed max_nodes;
  Format.printf "%a" Dfr_fuzz.Fuzz.pp_summary summary;
  (match out_dir with
  | Some dir when summary.Dfr_fuzz.Fuzz.findings <> [] ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (f : Dfr_fuzz.Fuzz.finding) ->
        match f.Dfr_fuzz.Fuzz.spec with
        | Ok text ->
          let path =
            Filename.concat dir
              (Printf.sprintf "fuzz-s%d-t%d.dfr" seed f.Dfr_fuzz.Fuzz.trial)
          in
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.printf "wrote %s\n" path
        | Error _ -> ())
      summary.Dfr_fuzz.Fuzz.findings
  | _ -> ());
  print_text_metrics ~metrics;
  obs_teardown ~trace;
  if summary.Dfr_fuzz.Fuzz.findings = [] then 0 else 1

let fuzz_cmd =
  let trials =
    Arg.(value & opt int 200
         & info [ "trials" ] ~doc:"Number of random cases to confront.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:
               "Campaign seed; the whole campaign is a pure function of \
                (seed, trials, max-nodes), independent of --domains.")
  in
  let max_nodes =
    Arg.(value & opt int 9
         & info [ "max-nodes" ]
             ~doc:"Largest generated network, in nodes (>= 4).")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ]
             ~doc:"Spread trials over this many OCaml domains.")
  in
  let out_dir =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write each shrunk disagreement as a .dfr spec into $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random routing relations, checker verdicts \
          confronted with adversarial simulator schedules and witness replay; \
          disagreements are shrunk and printed as .dfr specs")
    Term.(
      const fuzz_run $ trials $ seed $ max_nodes $ domains $ out_dir $ trace_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* synth: BWG' synthesis, restriction repair, optimality certificates  *)

module Synth = Dfr_synth.Synth

let synth_entry_json net (e : Reduction.removed) =
  let module J = Dfr_util.Json in
  J.Obj
    [
      ("head", J.Int e.Reduction.head);
      ("dest", J.Int e.Reduction.dest);
      ("target", J.Int e.Reduction.target);
      ("text", J.String (Synth.describe_entry net e));
    ]

let synth_stats_json (s : Reduction.stats) =
  let module J = Dfr_util.Json in
  J.Obj
    [
      ("rebuilds", J.Int s.Reduction.rebuilds);
      ("decisions", J.Int s.Reduction.decisions);
      ("conflicts", J.Int s.Reduction.conflicts);
      ("learned", J.Int s.Reduction.learned);
      ("pruned", J.Int s.Reduction.pruned);
      ("restored", J.Int s.Reduction.restored);
    ]

let print_removed net removed =
  let n = List.length removed in
  Printf.printf "  removed (%d):\n" n;
  List.iteri
    (fun i e ->
      if i < 16 then Printf.printf "    %s\n" (Synth.describe_entry net e)
      else if i = 16 then Printf.printf "    ... and %d more\n" (n - 16))
    removed

(* One problem's worth of output; returns the exit code.  [certify] is
   the optimal mode: prove the (minimized) removed set maximal and replay
   every per-entry witness certificate through the classifier. *)
let synth_report ~label ~mode ~certify ~json ~output ~metrics net
    (outcome : Synth.outcome) =
  let module J = Dfr_util.Json in
  let finish doc code =
    if json then
      print_endline (J.to_string_pretty (with_metrics ~metrics doc))
    else print_text_metrics ~metrics;
    code
  in
  let base verdict rest =
    J.Obj
      (("problem", J.String label)
      :: ("mode", J.String mode)
      :: ("verdict", J.String verdict)
      :: rest)
  in
  match outcome with
  | Synth.Already_free _ ->
    if not json then
      Printf.printf "synth %s: %s\n  already deadlock-free; nothing to repair\n"
        mode label;
    finish (base "already_free" []) 0
  | Synth.Unsat msg ->
    if not json then Printf.printf "synth %s: %s\n  unsatisfiable: %s\n" mode label msg;
    finish (base "unsat" [ ("reason", J.String msg) ]) 1
  | Synth.Gave_up msg ->
    if not json then Printf.printf "synth %s: %s\n  gave up: %s\n" mode label msg;
    finish (base "gave_up" [ ("reason", J.String msg) ]) 3
  | Synth.Synthesized s -> (
    let st = s.Synth.stats in
    if not json then begin
      Printf.printf "synth %s: %s\n" mode label;
      Printf.printf
        "  synthesized: %d entries removed%s; %d rebuilds, %d decisions, %d \
         conflicts, %d clauses learned, %d pruned, %d restored by \
         minimization\n"
        (List.length s.Synth.removed)
        (if s.Synth.widened > 0 then
           Printf.sprintf " (relation first widened by %d entries)"
             s.Synth.widened
         else "")
        st.Reduction.rebuilds st.Reduction.decisions st.Reduction.conflicts
        st.Reduction.learned st.Reduction.pruned st.Reduction.restored;
      if s.Synth.removed <> [] then print_removed net s.Synth.removed
    end;
    let spec_field, spec_code =
      match s.Synth.spec with
      | Ok text ->
        if not json then begin
          match output with
          | Some file ->
            let oc = open_out file in
            output_string oc text;
            close_out oc;
            Printf.printf "  wrote %s (checkable with `dfcheck spec check')\n"
              file
          | None -> Printf.printf "  spec:\n%s" text
        end
        else
          Option.iter
            (fun file ->
              let oc = open_out file in
              output_string oc text;
              close_out oc)
            output;
        ([ ("spec", J.String text) ], 0)
      | Error msg ->
        if not json then
          Printf.printf "  (result not expressible as a .dfr spec: %s)\n" msg;
        ([ ("spec_error", J.String msg) ], 0)
    in
    let doc rest =
      base "synthesized"
        ([
           ("removed", J.List (List.map (synth_entry_json net) s.Synth.removed));
           ("widened", J.Int s.Synth.widened);
           ("stats", synth_stats_json st);
         ]
        @ spec_field @ rest)
    in
    if not certify then finish (doc []) spec_code
    else
      match Synth.certify s.Synth.space ~removed:s.Synth.removed with
      | Synth.Cert_unknown reason ->
        if not json then
          Printf.printf "  certification inconclusive: %s\n" reason;
        finish (doc [ ("certification", J.String "unknown") ]) 3
      | Synth.Relaxable entries ->
        if not json then begin
          Printf.printf
            "  NOT maximal: %d removals can be re-admitted without creating \
             a True Cycle:\n"
            (List.length entries);
          List.iter
            (fun e -> Printf.printf "    %s\n" (Synth.describe_entry net e))
            entries
        end;
        finish
          (doc
             [
               ("certification", J.String "relaxable");
               ( "relaxable",
                 J.List (List.map (synth_entry_json net) entries) );
             ])
          1
      | Synth.Maximal items ->
        let replayed =
          List.map
            (fun item ->
              (item, Synth.replay s.Synth.space ~removed:s.Synth.removed item))
            items
        in
        let all_ok = List.for_all snd replayed in
        if not json then begin
          Printf.printf
            "  maximal: re-admitting any removed entry creates a True Cycle \
             (%d certificates%s)\n"
            (List.length items)
            (if all_ok then ", all replayed through the classifier"
             else "; REPLAY FAILED for some");
          List.iter
            (fun (item, ok) ->
              Printf.printf "    %s -> True Cycle [%s]%s\n"
                (Synth.describe_entry net item.Synth.relaxed)
                (String.concat " -> "
                   (List.map (Net.describe_buffer net) item.Synth.cycle))
                (if ok then "" else "  (replay failed!)"))
            replayed
        end;
        let cert_json =
          J.List
            (List.map
               (fun (item, ok) ->
                 J.Obj
                   [
                     ("relaxed", synth_entry_json net item.Synth.relaxed);
                     ("cycle", J.List (List.map (fun v -> J.Int v) item.Synth.cycle));
                     ("replayed", J.Bool ok);
                   ])
               replayed)
        in
        finish
          (doc
             [ ("certification", J.String "maximal"); ("certificates", cert_json) ])
          (if all_ok then spec_code else 3))

let synth_run mode name spec_file random_n seed max_nodes budget domains
    minimize json output trace metrics =
  let mode_str =
    match mode with `Bwg -> "bwg" | `Repair -> "repair" | `Optimal -> "optimal"
  in
  let problems =
    match (name, spec_file, random_n) with
    | Some a, None, None -> (
      match lookup a with
      | Error msg -> Error msg
      | Ok e ->
        let net = Registry.network_for e None in
        Ok [ (a, net, e.Registry.algo) ])
    | None, Some file, None -> (
      match Dfr_spec.Spec.load_file file with
      | Error e -> Error (Dfr_spec.Spec.error_to_string ~file e)
      | Ok spec ->
        Ok [ (file, spec.Dfr_spec.Spec.net, spec.Dfr_spec.Spec.algo) ])
    | None, None, Some n when n > 0 ->
      (* the fuzz generator as a design source: a deterministic stream of
         multi-wait designs; undeliverable draws are skipped, not counted *)
      let rng = Dfr_util.Prng.create seed in
      let rec draw acc i attempts =
        if i >= n || attempts > 100 * n then List.rev acc
        else
          let case = Dfr_fuzz.Gen.case rng ~max_nodes in
          if Dfr_fuzz.Case.deliverable case then
            let net, algo = Dfr_fuzz.Case.to_net_algo case in
            draw ((Printf.sprintf "random[%d] %s" i algo.Algo.name, net, algo) :: acc)
              (i + 1) (attempts + 1)
          else draw acc i (attempts + 1)
      in
      Ok (draw [] 0 0)
    | _ ->
      Error
        "exactly one problem source is required: -a NAME, --spec FILE or \
         --random N"
  in
  match problems with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok problems ->
    obs_setup ~trace ~metrics;
    let codes =
      List.map
        (fun (label, net, algo) ->
          let outcome =
            match mode with
            | `Repair -> Synth.repair ~budget ~domains net algo
            | `Bwg | `Optimal -> (
              match State_space.build net algo with
              | exception Invalid_argument msg ->
                Synth.Gave_up ("invalid algorithm/network pair: " ^ msg)
              | space ->
                Synth.synthesize ~budget ~domains
                  ~minimize:(minimize || mode = `Optimal)
                  space)
          in
          synth_report ~label ~mode:mode_str ~certify:(mode = `Optimal) ~json
            ~output ~metrics net outcome)
        problems
    in
    obs_teardown ~trace;
    List.fold_left max 0 codes

let synth_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("bwg", `Bwg); ("repair", `Repair); ("optimal", `Optimal) ]) `Bwg
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,bwg): find a wait-connected, True-Cycle-free wait-edge \
             subset (Theorem 3's BWG') — exit 1 is a proof that none \
             exists.  $(b,repair): widen a deadlocking relation across \
             virtual resource copies and search for a minimal set of entry \
             removals restoring deadlock freedom.  $(b,optimal): synthesize \
             a minimized BWG', then certify it maximal Theorem-6-style — \
             every re-admitted entry yields a True-Cycle witness, replayed \
             through the classifier.")
  in
  let algo_name =
    Arg.(value & opt (some string) None
         & info [ "a"; "algorithm" ] ~doc:"Catalogue algorithm to synthesize for.")
  in
  let spec_file =
    Arg.(value & opt (some file) None
         & info [ "spec" ] ~docv:"FILE" ~doc:"A .dfr spec to synthesize for.")
  in
  let random_n =
    Arg.(value & opt (some int) None
         & info [ "random" ] ~docv:"N"
             ~doc:
               "Run on $(docv) random multi-wait designs from the fuzz \
                generator (deliverable draws only).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:
               "Seed for --random; the whole run is a pure function of \
                (seed, N, max-nodes), independent of --domains.")
  in
  let max_nodes =
    Arg.(value & opt int 6
         & info [ "max-nodes" ] ~doc:"Largest random network, in nodes.")
  in
  let budget =
    Arg.(value & opt int 4000
         & info [ "budget" ] ~doc:"Search budget in BWG rebuilds.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ]
             ~doc:
               "Per-candidate BWG build parallelism; outcomes are \
                bit-for-bit independent of it.")
  in
  let minimize =
    Arg.(value & flag
         & info [ "minimize" ]
             ~doc:
               "Greedily restore removals that turn out unnecessary (mode \
                bwg; repair and optimal always minimize).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the result as JSON.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the synthesized .dfr spec to $(docv).")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Synthesize deadlock-free designs: find a BWG' automatically \
          (Theorem 3), repair a deadlocking algorithm by minimal \
          restriction, or certify a restriction maximal (Theorem 6).  \
          Outputs reprint as checkable .dfr specs.  Exit: 0 synthesized, 1 \
          proven unsatisfiable / not maximal, 2 usage, 3 gave up."
       ~man:
         [
           `S Manpage.s_examples;
           `P "Find a BWG' for the Two-Buffer algorithm:";
           `Pre "  dfcheck synth --mode bwg -a two-buffer";
           `P "Repair the deadlocking 1-VC dragonfly control and re-check it:";
           `Pre
             "  dfcheck synth --mode repair -a dragonfly-minimal-1vc -o \
              fixed.dfr\n\
             \  dfcheck spec check fixed.dfr";
         ])
    Term.(
      const synth_run $ mode $ algo_name $ spec_file $ random_n $ seed $ max_nodes
      $ budget $ domains $ minimize $ json $ output $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* serve: the batched NDJSON checking service                          *)

let serve_run port workers queue cache cache_entry_bytes timeout_ms domains
    sessions trace metrics =
  if
    workers < 1 || queue < 1 || domains < 0 || cache < 0 || cache_entry_bytes < 0
    || timeout_ms < 0 || sessions < 0
  then begin
    prerr_endline
      "dfcheck serve: --workers and --queue must be >= 1; --domains, --cache, \
       --cache-entry-bytes, --timeout-ms and --sessions must be >= 0";
    2
  end
  else begin
    obs_setup ~trace ~metrics;
    let engine =
      Engine.create
        { Engine.workers; capacity = queue; cache_capacity = cache;
          cache_entry_bytes; timeout_ms; domains; sessions }
    in
    let code =
      match port with
      | None -> Server.run_stdio engine
      | Some port -> Server.run_tcp engine ~port
    in
    Engine.shutdown engine;
    (* stdout is the protocol stream, so metrics go to stderr here *)
    if metrics then
      Printf.eprintf "metrics:\n%s\n%!"
        (Dfr_util.Json.to_string_pretty (Obs.metrics_json ()));
    obs_teardown ~trace;
    code
  end

let serve_cmd =
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:
               "Listen on 127.0.0.1:$(docv) (0 picks a free port, announced \
                on stderr).  Without this flag the session runs on \
                stdin/stdout.")
  in
  let workers =
    Arg.(value & opt int 1
         & info [ "workers" ]
             ~doc:"Domain workers running checks concurrently.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ]
             ~doc:
               "Maximum outstanding checks (queued or running); beyond it \
                requests are refused with a $(b,queue_full) error.")
  in
  let cache =
    Arg.(value & opt int 256
         & info [ "cache" ]
             ~doc:"Verdict-cache capacity in entries (0 disables caching).")
  in
  let cache_entry_bytes =
    Arg.(value & opt int Engine.default_config.Engine.cache_entry_bytes
         & info [ "cache-entry-bytes" ]
             ~doc:
               "Largest rendered report a cache entry may pin, in bytes; \
                bigger reports (huge deadlock witnesses) are served but not \
                cached (0 removes the cap).")
  in
  let timeout_ms =
    Arg.(value & opt int 0
         & info [ "timeout-ms" ]
             ~doc:"Per-request deadline in milliseconds (0 disables).")
  in
  let domains =
    Arg.(value & opt int 0
         & info [ "domains" ]
             ~doc:
               "Per-check BWG/classification parallelism, as in `check'.  \
                The default 0 auto-sizes from the machine's core count.")
  in
  let sessions =
    Arg.(value & opt int Engine.default_config.Engine.sessions
         & info [ "sessions" ]
             ~doc:
               "Incremental sessions kept live for $(b,check_delta) requests \
                (0 disables the delta path; such requests then re-check \
                cold).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve checking requests over an NDJSON protocol: one JSON request \
          per line in, one JSON response per line out, in request order.  \
          Verdicts are cached by a digest of the elaborated problem, so \
          re-checking the same spec (or a named problem equal to it) is \
          answered without recomputation.")
    Term.(const serve_run $ port $ workers $ queue $ cache $ cache_entry_bytes
          $ timeout_ms $ domains $ sessions $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* client: one-shot scripting client for a TCP serve instance          *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let client_run op port spec algo topo ms raw =
  let module J = Dfr_util.Json in
  let request =
    match op with
    | `Ping | `Catalogue | `Stats | `Shutdown ->
      let name =
        match op with
        | `Ping -> "ping"
        | `Catalogue -> "catalogue"
        | `Stats -> "stats"
        | _ -> "shutdown"
      in
      Ok (J.Obj [ ("op", J.String name) ])
    | `Sleep -> Ok (J.Obj [ ("op", J.String "sleep"); ("ms", J.Int ms) ])
    | `Check -> (
      match (spec, algo) with
      | Some file, None -> (
        match read_file file with
        | text -> Ok (J.Obj [ ("op", J.String "check"); ("spec", J.String text) ])
        | exception Sys_error msg -> Error msg)
      | None, Some a ->
        let base = [ ("op", J.String "check"); ("algo", J.String a) ] in
        Ok
          (J.Obj
             (match topo with
             | Some t -> base @ [ ("topology", J.String t) ]
             | None -> base))
      | _ -> Error "op `check' needs exactly one of --spec FILE or -a NAME")
  in
  match request with
  | Error msg ->
    Printf.eprintf "dfcheck client: %s\n" msg;
    2
  | Ok req -> (
    match
      Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "dfcheck client: cannot connect to 127.0.0.1:%d: %s\n" port
        (Unix.error_message err);
      2
    | ic, oc -> (
      output_string oc (J.to_string req);
      output_char oc '\n';
      flush oc;
      match input_line ic with
      | exception End_of_file ->
        (try Unix.shutdown_connection ic with Unix.Unix_error _ -> ());
        Printf.eprintf "dfcheck client: server closed without responding\n";
        2
      | line -> (
        (try Unix.shutdown_connection ic with Unix.Unix_error _ -> ());
        match J.of_string line with
        | Error msg ->
          Printf.eprintf "dfcheck client: unparseable response: %s\n" msg;
          2
        | Ok doc ->
          if raw then print_endline line
          else print_endline (J.to_string_pretty doc);
          (* mirror the local exit-code contract: a served check exits
             with the verdict's code, any protocol failure with 2 *)
          (match J.member "ok" doc with
          | Some (J.Bool true) ->
            Option.value ~default:0 (Option.bind (J.member "exit" doc) J.to_int)
          | _ -> 2))))

let client_cmd =
  let op =
    let ops =
      [ ("ping", `Ping); ("catalogue", `Catalogue); ("stats", `Stats);
        ("check", `Check); ("sleep", `Sleep); ("shutdown", `Shutdown) ]
    in
    Arg.(required & pos 0 (some (enum ops)) None
         & info [] ~docv:"OP"
             ~doc:
               "Operation: $(b,ping), $(b,catalogue), $(b,stats), \
                $(b,check), $(b,sleep) or $(b,shutdown).")
  in
  let port =
    Arg.(required & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Port of the serve instance on 127.0.0.1.")
  in
  let spec =
    Arg.(value & opt (some file) None
         & info [ "spec" ] ~docv:"FILE"
             ~doc:"For $(b,check): send this .dfr file's text.")
  in
  let algo =
    Arg.(value & opt (some string) None
         & info [ "a"; "algorithm" ]
             ~doc:"For $(b,check): name a catalogue algorithm instead.")
  in
  let topo =
    Arg.(value & opt (some string) None
         & info [ "t"; "topology" ]
             ~doc:"For $(b,check) with -a: topology string, e.g. hypercube:3.")
  in
  let ms =
    Arg.(value & opt int 100
         & info [ "ms" ] ~doc:"For $(b,sleep): duration in milliseconds.")
  in
  let raw =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Print the response as the single NDJSON line received.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a `dfcheck serve --port' instance and print the \
          response.  A served check exits with the verdict's usual code \
          (0 free, 1 deadlock, 3 unknown); protocol errors exit 2.")
    Term.(const client_run $ op $ port $ spec $ algo $ topo $ ms $ raw)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "dfcheck" ~version:"1.0.0"
      ~doc:"Deadlock-freedom analysis of interconnection-network routing"
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           list_cmd;
           check_cmd;
           bwg_cmd;
           adaptiveness_cmd;
           matrix_cmd;
           simulate_cmd;
           scenario_cmd;
           audit_cmd;
           spec_cmd;
           fuzz_cmd;
           synth_cmd;
           serve_cmd;
           client_cmd;
         ])
  in
  (* fold cmdliner's usage-error code into the documented "2 = usage error" *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
