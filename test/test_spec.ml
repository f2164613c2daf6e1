(* Golden corpus for the .dfr specification language: the shipped specs
   must re-derive the verdicts of their compiled-in counterparts —
   bit-for-bit for the incoherent example — and malformed input must fail
   with line/column-positioned errors. *)

open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_spec

let check = Alcotest.check

(* tests run from _build/default/test; the dune deps clause copies the
   corpus next to it *)
let spec_dir = Filename.concat ".." "examples/specs"
let spec_path name = Filename.concat spec_dir name

let load name =
  match Spec.load_file (spec_path name) with
  | Ok s -> s
  | Error e -> Alcotest.fail (name ^ ": " ^ Spec.error_to_string e)

let compile_err src =
  match Spec.compile_string src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e -> e

let expect_err src ~line ~col ~substr =
  let e = Spec.error_to_string (compile_err src) in
  let prefix = Printf.sprintf "%d:%d:" line col in
  if not (String.length e >= String.length prefix
          && String.sub e 0 (String.length prefix) = prefix) then
    Alcotest.failf "expected error at %s got %S" prefix e;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  if not (contains e substr) then
    Alcotest.failf "error %S does not mention %S" e substr

(* ---------------- golden corpus ---------------- *)

(* the spec re-derives Duato's incoherent example bit-for-bit: same
   buffers, same verdict, same cycle inventory, same JSON report *)
let test_incoherent_bit_for_bit () =
  let s = load "incoherent.dfr" in
  let compiled_net = Incoherent_example.network () in
  let compiled = Checker.check compiled_net Incoherent_example.algo in
  let from_spec = Checker.check s.Spec.net s.Spec.algo in
  check Alcotest.int "num buffers" (Net.num_buffers compiled_net)
    (Net.num_buffers s.Spec.net);
  for b = 0 to Net.num_buffers compiled_net - 1 do
    check Alcotest.string
      (Printf.sprintf "buffer %d name" b)
      (Net.describe_buffer compiled_net b)
      (Net.describe_buffer s.Spec.net b)
  done;
  check Alcotest.bool "BWG equal" true
    (Dfr_graph.Digraph.equal
       (Bwg.graph compiled.Checker.bwg)
       (Bwg.graph from_spec.Checker.bwg));
  check Alcotest.string "JSON report identical"
    (Report_json.to_string compiled_net Incoherent_example.algo compiled)
    (Report_json.to_string s.Spec.net s.Spec.algo from_spec)

(* the incoherent verdict itself: a True Cycle under specific waiting *)
let test_incoherent_verdict () =
  let s = load "incoherent.dfr" in
  match (Checker.check s.Spec.net s.Spec.algo).Checker.verdict with
  | Checker.Deadlock_possible (Checker.True_cycle _) -> ()
  | _ -> Alcotest.fail "expected a True Cycle deadlock"

(* up*/down* spec matches the compiled relation exactly: same BWG, and
   both deadlock-free *)
let test_updown_matches_compiled () =
  let s = load "updown.dfr" in
  let ud =
    Updown.make ~num_nodes:4 ~edges:[ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] ~root:0
  in
  check Alcotest.int "num buffers" (Net.num_buffers ud.Updown.net)
    (Net.num_buffers s.Spec.net);
  let compiled = Checker.check ud.Updown.net ud.Updown.algo in
  let from_spec = Checker.check s.Spec.net s.Spec.algo in
  check Alcotest.bool "BWG equal" true
    (Dfr_graph.Digraph.equal
       (Bwg.graph compiled.Checker.bwg)
       (Bwg.graph from_spec.Checker.bwg));
  let free r =
    match r.Checker.verdict with Checker.Deadlock_free _ -> true | _ -> false
  in
  check Alcotest.bool "compiled deadlock-free" true (free compiled);
  check Alcotest.bool "spec deadlock-free" true (free from_spec)

(* unrestricted minimal adaptive routing on a 1-VC mesh deadlocks, from
   spec and catalogue alike *)
let test_mesh_minimal_deadlocks () =
  let s = load "mesh-minimal.dfr" in
  let entry =
    match Registry.find "unrestricted-mesh" with
    | Some e -> e
    | None -> Alcotest.fail "catalogue entry missing"
  in
  let net =
    Registry.network_for entry (Some (Dfr_topology.Topology.mesh [| 4; 4 |]))
  in
  let deadlocks n a =
    match (Checker.check n a).Checker.verdict with
    | Checker.Deadlock_possible _ -> true
    | _ -> false
  in
  check Alcotest.bool "compiled deadlocks" true (deadlocks net entry.Registry.algo);
  check Alcotest.bool "spec deadlocks" true (deadlocks s.Spec.net s.Spec.algo)

(* the irregular-topology goldens: the explicit-rule specs must agree
   with their compiled-in catalogue counterparts *)

let test_fullmesh_matches_compiled () =
  let s = load "fullmesh.dfr" in
  let net = Net.wormhole (Dfr_topology.Topology.fullmesh 4) ~vcs:1 in
  check Alcotest.int "num buffers" (Net.num_buffers net)
    (Net.num_buffers s.Spec.net);
  let free n a =
    match (Checker.check n a).Checker.verdict with
    | Checker.Deadlock_free _ -> true
    | _ -> false
  in
  check Alcotest.bool "compiled deadlock-free" true
    (free net Fullmesh_routing.direct);
  check Alcotest.bool "spec deadlock-free" true (free s.Spec.net s.Spec.algo)

let test_dragonfly_matches_compiled () =
  let s = load "dragonfly-small.dfr" in
  let net =
    Net.wormhole (Dfr_topology.Topology.dragonfly ~a:2 ~h:1 ()) ~vcs:2
  in
  check Alcotest.int "num buffers" (Net.num_buffers net)
    (Net.num_buffers s.Spec.net);
  let free n a =
    match (Checker.check n a).Checker.verdict with
    | Checker.Deadlock_free _ -> true
    | _ -> false
  in
  check Alcotest.bool "compiled deadlock-free" true
    (free net Dragonfly_routing.minimal);
  check Alcotest.bool "spec deadlock-free" true (free s.Spec.net s.Spec.algo)

(* the topology clause shares Topology.of_string's grammar *)
let test_topology_clause_forms () =
  let compile src =
    match Spec.compile_string src with
    | Ok s -> s
    | Error e -> Alcotest.fail (Spec.error_to_string e)
  in
  let a = compile "topology mesh 3 3\nroute at * to * : minimal\n" in
  let b = compile "topology mesh:3x3\nroute at * to * : minimal\n" in
  check Alcotest.int "same node count" (Net.num_nodes a.Spec.net)
    (Net.num_nodes b.Spec.net);
  check Alcotest.int "same buffer count" (Net.num_buffers a.Spec.net)
    (Net.num_buffers b.Spec.net);
  check Alcotest.int "matches Net.wormhole"
    (Net.num_buffers
       (Net.wormhole (Dfr_topology.Topology.mesh [| 3; 3 |]) ~vcs:1))
    (Net.num_buffers a.Spec.net)

let test_spec_dot_escapes () =
  let s = load "incoherent.dfr" in
  let dot = Spec.to_dot s in
  check Alcotest.bool "mentions a channel" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains dot "qA1")

(* ---------------- positioned errors ---------------- *)

let test_error_unknown_channel () =
  expect_err "nodes 2\nchannel a : 0 -> 1\nroute at 0 to * : b\n" ~line:3 ~col:19
    ~substr:"unknown channel"

let test_error_wait_not_subset () =
  expect_err
    "nodes 2\nwaiting specific\nchannel a : 0 -> 1\nchannel b : 0 -> 1 vc 1\n\
     route at 0 to * : a\nwait at 0 to * : b\n"
    ~line:6 ~col:1 ~substr:"subset"

let test_error_duplicate_channel_name () =
  expect_err "nodes 2\nchannel a : 0 -> 1\nchannel a : 1 -> 0\n" ~line:3 ~col:9
    ~substr:"duplicate channel"

let test_error_duplicate_channel_key () =
  expect_err "nodes 2\nchannel a : 0 -> 1\nchannel b : 0 -> 1\n" ~line:3 ~col:9
    ~substr:"first declared"

let test_error_bad_topology () =
  expect_err "topology mesh 0 4\nroute at * to * : minimal\n" ~line:1 ~col:1
    ~substr:"radix"

let test_error_non_adjacent_output () =
  expect_err
    "nodes 3\nchannel a : 0 -> 1\nchannel b : 1 -> 2\nroute at 0 to * : b\n"
    ~line:4 ~col:19 ~substr:"head node"

let test_error_unreachable_destination () =
  let e = compile_err "nodes 2\nchannel a : 0 -> 1\nroute at 0 to * : a\n" in
  let msg = Spec.error_to_string e in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions undeliverable pairs" true
    (contains msg "cannot deliver")

let test_error_lexer_position () =
  let e = compile_err "nodes 2\nchannel ? : 0 -> 1\n" in
  check Alcotest.int "line" 2 e.Spec.pos.Ast.line;
  check Alcotest.int "col" 9 e.Spec.pos.Ast.col

(* The one resolver behind every CLI subcommand and serve op that takes
   a problem: its error texts are what every surface prints. *)
let test_problem_resolver () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let error source =
    match Problem.resolve source with
    | Ok _ -> Alcotest.fail "expected a resolution error"
    | Error e -> e
  in
  (match error (Problem.Named { algo = "no-such-algorithm"; topology = None }) with
  | Problem.Bad_request msg ->
    check Alcotest.bool "names the unknown algorithm" true
      (contains msg "\"no-such-algorithm\"");
    List.iter
      (fun name ->
        check Alcotest.bool ("lists " ^ name) true (contains msg name))
      (Registry.names ())
  | Problem.Spec_error _ -> Alcotest.fail "unknown name is not a spec error");
  (match error (Problem.Named { algo = "efa"; topology = Some "bogus:3" }) with
  | Problem.Bad_request msg ->
    check Alcotest.bool "gives the topology grammar" true
      (contains msg Dfr_topology.Topology.grammar_summary)
  | Problem.Spec_error _ -> Alcotest.fail "bad topology is not a spec error");
  let missing = spec_path "no-such-spec.dfr" in
  (match error (Problem.Spec_file missing) with
  | Problem.Spec_error msg ->
    check Alcotest.bool "names the file" true
      (String.length msg > String.length missing
      && String.sub msg 0 (String.length missing) = missing)
  | Problem.Bad_request _ -> Alcotest.fail "unreadable spec is a spec error");
  (match Problem.resolve (Problem.Named { algo = "efa"; topology = Some "hypercube:2" }) with
  | Ok p ->
    check Alcotest.string "registry name" "efa" p.Problem.name;
    check Alcotest.string "network" "wormhole(hypercube-2,2vc)" (Net.name p.Problem.net)
  | Error e -> Alcotest.fail (Problem.message e));
  (* a request naming both: the spec wins, as it always has on serve *)
  let text = In_channel.with_open_bin (spec_path "updown.dfr") In_channel.input_all in
  let both =
    Dfr_util.Json.Obj
      [ ("algo", Dfr_util.Json.String "efa"); ("spec", Dfr_util.Json.String text) ]
  in
  (match Problem.of_json both with
  | Some (Problem.Spec_text t) -> check Alcotest.string "spec text kept" text t
  | _ -> Alcotest.fail "spec must win over algo");
  match Problem.of_json (Dfr_util.Json.Obj []) with
  | None -> ()
  | Some _ -> Alcotest.fail "no problem named"

let suite =
  [
    Alcotest.test_case "incoherent bit-for-bit" `Quick test_incoherent_bit_for_bit;
    Alcotest.test_case "incoherent verdict" `Quick test_incoherent_verdict;
    Alcotest.test_case "updown matches compiled" `Quick test_updown_matches_compiled;
    Alcotest.test_case "mesh-minimal deadlocks" `Quick test_mesh_minimal_deadlocks;
    Alcotest.test_case "fullmesh matches compiled" `Quick test_fullmesh_matches_compiled;
    Alcotest.test_case "dragonfly matches compiled" `Quick
      test_dragonfly_matches_compiled;
    Alcotest.test_case "topology clause forms" `Quick test_topology_clause_forms;
    Alcotest.test_case "spec dot output" `Quick test_spec_dot_escapes;
    Alcotest.test_case "error: unknown channel" `Quick test_error_unknown_channel;
    Alcotest.test_case "error: wait not subset" `Quick test_error_wait_not_subset;
    Alcotest.test_case "error: duplicate name" `Quick test_error_duplicate_channel_name;
    Alcotest.test_case "error: duplicate key" `Quick test_error_duplicate_channel_key;
    Alcotest.test_case "error: bad topology" `Quick test_error_bad_topology;
    Alcotest.test_case "error: non-adjacent output" `Quick
      test_error_non_adjacent_output;
    Alcotest.test_case "error: unreachable destination" `Quick
      test_error_unreachable_destination;
    Alcotest.test_case "error: lexer position" `Quick test_error_lexer_position;
    Alcotest.test_case "problem resolver" `Quick test_problem_resolver;
  ]
