(* Soundness fuzzing: random routing relations cross-validated against the
   simulator.

   Each fuzz case draws a deterministic random sub-relation of minimal
   adaptive routing on a small network (a nonempty subset of the minimal
   channels for every (node, destination) pair, any-wait).  The checker's
   verdict is then confronted with dynamics:

   - Deadlock_free  => saturating stress batches must all complete;
   - Deadlock_possible with a replayable witness => the seated
     configuration must be dynamically stuck;
   - Unknown        => accepted (the procedure is worst-case exponential),
     but counted, and the count must stay small.

   This is the strongest end-to-end consistency check in the suite: it
   exercises reachability, BWG construction, the knot search, cycle
   classification, the reduction search and both simulators against each
   other with no hand-picked structure. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim

let check = Alcotest.check

(* A random sub-relation: for every (node, dest) draw a nonempty subset of
   the minimal (dim, dir, vc) moves.  The table makes it a deterministic
   function, as the paper's model requires. *)
let random_subrelation net seed =
  let topo = Net.topology_exn net in
  let n = Topology.num_nodes topo in
  let vcs = Net.vcs net in
  let rng = Dfr_util.Prng.create seed in
  let table = Hashtbl.create 64 in
  for node = 0 to n - 1 do
    for dest = 0 to n - 1 do
      if node <> dest then begin
        let moves = Topology.minimal_moves topo ~src:node ~dst:dest in
        let all =
          List.concat_map
            (fun (dim, dir) ->
              List.init vcs (fun vc ->
                  Buf.id (Net.channel net ~src:node ~dim ~dir ~vc)))
            moves
        in
        let chosen = List.filter (fun _ -> Dfr_util.Prng.bool rng) all in
        let chosen = if chosen = [] then [ Dfr_util.Prng.pick rng all ] else chosen in
        Hashtbl.replace table (node, dest) chosen
      end
    done
  done;
  Algo.make
    ~name:(Printf.sprintf "fuzz-%d" seed)
    ~wait:Algo.Any_wait
    ~route:(fun _net b ~dest ->
      Option.value (Hashtbl.find_opt table (Buf.head_node b, dest)) ~default:[])
    ()

let stress_traffic topo seed =
  Traffic.batch topo ~pattern:Traffic.Uniform ~count:12 ~length:10 ~seed

let confront net algo ~unknowns =
  let topo = Net.topology_exn net in
  match Checker.verdict net algo with
  | Checker.Deadlock_free _ ->
    List.iter
      (fun seed ->
        match
          Wormhole_sim.run
            ~config:{ Wormhole_sim.default_config with seed; capacity = 2 }
            net algo (stress_traffic topo seed)
        with
        | Wormhole_sim.Completed _ -> ()
        | o ->
          Alcotest.failf "%s certified free but %a" algo.Algo.name
            Wormhole_sim.pp_outcome o)
      [ 1; 2 ]
  | Checker.Deadlock_possible failure -> (
    match Dfr_scenario.Scenario.replay net algo failure with
    | Some confirmed ->
      check Alcotest.bool (algo.Algo.name ^ " witness confirmed") true confirmed
    | None -> ())
  | Checker.Unknown _ -> incr unknowns

let fuzz_network net seeds () =
  let unknowns = ref 0 in
  List.iter (fun seed -> confront net (random_subrelation net seed) ~unknowns) seeds;
  (* the caps may fire occasionally, but never dominate *)
  check Alcotest.bool "few unknowns" true (!unknowns * 4 <= List.length seeds)

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_fuzz_cube2 =
  fuzz_network (Net.wormhole (Topology.hypercube 2) ~vcs:2) (seeds 1 25)

let test_fuzz_mesh23 =
  fuzz_network (Net.wormhole (Topology.mesh [| 2; 3 |]) ~vcs:1) (seeds 100 124)

let test_fuzz_mesh33 =
  fuzz_network (Net.wormhole (Topology.mesh [| 3; 3 |]) ~vcs:1) (seeds 200 211)

let test_fuzz_cube3 =
  fuzz_network (Net.wormhole (Topology.hypercube 3) ~vcs:1) (seeds 300 307)

(* The same game for store-and-forward relations. *)
let random_saf_subrelation net seed =
  let topo = Net.topology_exn net in
  let n = Topology.num_nodes topo in
  let classes = Net.vcs net in
  let rng = Dfr_util.Prng.create seed in
  let table = Hashtbl.create 64 in
  for node = 0 to n - 1 do
    for dest = 0 to n - 1 do
      if node <> dest then begin
        let moves = Topology.minimal_moves topo ~src:node ~dst:dest in
        let all =
          List.concat_map
            (fun (dim, dir) ->
              match Topology.neighbor topo node dim dir with
              | None -> []
              | Some v ->
                List.init classes (fun cls ->
                    Buf.id (Net.node_buffer net ~node:v ~cls)))
            moves
        in
        let chosen = List.filter (fun _ -> Dfr_util.Prng.bool rng) all in
        let chosen = if chosen = [] then [ Dfr_util.Prng.pick rng all ] else chosen in
        Hashtbl.replace table (node, dest) chosen
      end
    done
  done;
  Algo.make
    ~name:(Printf.sprintf "fuzz-saf-%d" seed)
    ~wait:Algo.Any_wait
    ~route:(fun net b ~dest ->
      match Buf.kind b with
      | Buf.Injection node ->
        (* enter through the local class-0 buffer *)
        [ Buf.id (Net.node_buffer net ~node ~cls:0) ]
      | _ ->
        Option.value (Hashtbl.find_opt table (Buf.head_node b, dest)) ~default:[])
    ()

let confront_saf net algo ~unknowns =
  let topo = Net.topology_exn net in
  match Checker.verdict net algo with
  | Checker.Deadlock_free _ ->
    List.iter
      (fun seed ->
        match
          Saf_sim.run
            ~config:{ Saf_sim.max_cycles = 100_000; seed }
            net algo
            (Traffic.batch topo ~pattern:Traffic.Uniform ~count:12 ~length:1 ~seed)
        with
        | Saf_sim.Completed _ -> ()
        | o ->
          Alcotest.failf "%s certified free but %a" algo.Algo.name Saf_sim.pp_outcome o)
      [ 1; 2 ]
  | Checker.Deadlock_possible failure -> (
    match Dfr_scenario.Scenario.replay net algo failure with
    | Some confirmed ->
      check Alcotest.bool (algo.Algo.name ^ " witness confirmed") true confirmed
    | None -> ())
  | Checker.Unknown _ -> incr unknowns

let test_fuzz_saf () =
  let net = Net.store_and_forward (Topology.mesh [| 3; 3 |]) ~classes:2 in
  let unknowns = ref 0 in
  List.iter
    (fun seed -> confront_saf net (random_saf_subrelation net seed) ~unknowns)
    (seeds 400 419);
  check Alcotest.bool "few unknowns" true (!unknowns <= 5)

let suite =
  [
    Alcotest.test_case "fuzz wormhole 2-cube (25 relations)" `Quick test_fuzz_cube2;
    Alcotest.test_case "fuzz wormhole 2x3 mesh (25 relations)" `Quick test_fuzz_mesh23;
    Alcotest.test_case "fuzz wormhole 3x3 mesh (12 relations)" `Quick test_fuzz_mesh33;
    Alcotest.test_case "fuzz wormhole 3-cube (8 relations)" `Quick test_fuzz_cube3;
    Alcotest.test_case "fuzz SAF 3x3 mesh (20 relations)" `Quick test_fuzz_saf;
  ]

(* ---------------- specific-wait fuzzing (Theorem 2 path) ---------------- *)

(* Same random sub-relations, but committed waiting: the packet waits on
   one designated buffer (the first candidate).  This drives the checker
   through Theorem 2's classification instead of the Theorem 3 reduction. *)
let random_specific_subrelation net seed =
  let base = random_subrelation net seed in
  {
    base with
    Algo.name = Printf.sprintf "fuzz-specific-%d" seed;
    wait = Algo.Specific_wait;
    waits =
      (fun net' b ~dest ->
        match base.Algo.route net' b ~dest with
        | [] -> []
        | first :: _ -> [ first ]);
  }

let test_fuzz_specific_wait () =
  let net = Net.wormhole (Topology.hypercube 2) ~vcs:2 in
  let unknowns = ref 0 in
  List.iter
    (fun seed -> confront net (random_specific_subrelation net seed) ~unknowns)
    (seeds 500 529);
  check Alcotest.bool "few unknowns" true (!unknowns * 4 <= 30)

(* ---------------- wrap-around (torus) fuzzing ---------------- *)

let test_fuzz_ring () =
  (* random sub-relations on a ring: most deadlock on the wrap cycle,
     a few (those that happen to break it) are certified; all confronted *)
  let net = Net.wormhole (Topology.ring 4) ~vcs:2 in
  let unknowns = ref 0 in
  List.iter
    (fun seed -> confront net (random_subrelation net seed) ~unknowns)
    (seeds 600 624);
  check Alcotest.bool "few unknowns" true (!unknowns * 4 <= 25)

let test_fuzz_torus () =
  let net = Net.wormhole (Topology.torus [| 3; 3 |]) ~vcs:1 in
  let unknowns = ref 0 in
  List.iter
    (fun seed -> confront net (random_subrelation net seed) ~unknowns)
    (seeds 700 711);
  check Alcotest.bool "few unknowns" true (!unknowns <= 3)

let suite =
  suite
  @ [
      Alcotest.test_case "fuzz specific-wait 2-cube (30 relations)" `Quick
        test_fuzz_specific_wait;
      Alcotest.test_case "fuzz ring (25 relations)" `Quick test_fuzz_ring;
      Alcotest.test_case "fuzz torus 3x3 (12 relations)" `Quick test_fuzz_torus;
    ]

(* ---------------- exact Theorem-3 reference ---------------- *)

(* Generated multi-wait designs that reach the Theorem-3 search, decided
   again by brute force.  A BWG' that has no True Cycle keeps none when
   entries are removed (routes are fixed, so the property is monotone),
   so some wait-connected BWG' without a True Cycle exists iff some
   choice of exactly one wait per state has none.  Designs with at most
   2^10 such choices are enumerated completely; the checker must find a
   BWG' exactly when the enumeration does. *)
let one_wait_choices space =
  let states = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      match State_space.waits space ~buf ~dest with
      | [] -> ()
      | ws -> states := (buf, dest, Array.of_list ws) :: !states);
  Array.of_list (List.rev !states)

let exists_free_choice space states =
  let n = Array.length states in
  let pick = Array.make n 0 in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i (buf, dest, _) -> Hashtbl.replace index (buf, dest) i) states;
  let wait_sets ~buf ~dest =
    match Hashtbl.find_opt index (buf, dest) with
    | Some i ->
      let _, _, ws = states.(i) in
      [ ws.(pick.(i)) ]
    | None -> []
  in
  let free () =
    match Reduction.true_cycle_status (Bwg.build ~wait_sets space) with
    | Ok None -> true
    | Ok (Some _) -> false
    | Error reason -> Alcotest.failf "reference probe hit a cap: %s" reason
  in
  (* odometer over the choices *)
  let rec next i =
    if i >= n then false
    else
      let _, _, ws = states.(i) in
      if pick.(i) + 1 < Array.length ws then begin
        pick.(i) <- pick.(i) + 1;
        true
      end
      else begin
        pick.(i) <- 0;
        next (i + 1)
      end
  in
  let rec go () = free () || (next 0 && go ()) in
  go ()

let test_theorem3_exact_reference () =
  let reduced = ref 0 and refuted = ref 0 in
  for seed = 1 to 4000 do
    let case = Dfr_fuzz.Gen.case (Dfr_util.Prng.create seed) ~max_nodes:6 in
    if Dfr_fuzz.Case.deliverable case then begin
      let net, algo = Dfr_fuzz.Case.to_net_algo case in
      let searched =
        match Checker.verdict net algo with
        | Checker.Deadlock_free (Checker.Reduced_bwg _) -> Some true
        | Checker.Deadlock_possible (Checker.No_reduction _) -> Some false
        | _ -> None
      in
      match searched with
      | None -> ()
      | Some found ->
        let space = State_space.build net algo in
        let states = one_wait_choices space in
        let log2_choices =
          Array.fold_left
            (fun acc (_, _, ws) ->
              acc +. Float.log2 (float_of_int (Array.length ws)))
            0. states
        in
        if log2_choices <= 10. then begin
          incr (if found then reduced else refuted);
          check Alcotest.bool
            (Printf.sprintf "seed %d (%s): BWG' exists" seed algo.Algo.name)
            (exists_free_choice space states) found
        end
    end
  done;
  (* both directions of the equivalence are exercised *)
  check Alcotest.bool "enough reduced designs compared" true (!reduced >= 10);
  check Alcotest.bool "enough refuted designs compared" true (!refuted >= 10)

let suite =
  suite
  @ [
      Alcotest.test_case "Theorem-3 search matches one-wait enumeration" `Quick
        test_theorem3_exact_reference;
    ]
