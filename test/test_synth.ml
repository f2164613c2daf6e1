(* dfr_synth: the synthesized artifacts must stand on their own.  Every
   test here closes the loop through machinery the synthesizer does NOT
   control: a BWG' is accepted only if the checker re-derives freedom
   from the synthesized algorithm, a repair only if its printed .dfr
   compiles and re-checks free, a maximality certificate only if replay
   rebuilds the relaxed BWG from scratch and re-finds the cycle. *)

open Dfr_routing
open Dfr_core
module Synth = Dfr_synth.Synth

let check = Alcotest.check

let space_of (e : Registry.entry) =
  let net = Registry.network_for e None in
  (net, State_space.build net e.Registry.algo)

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry entry %s disappeared" name

let synthesized = function
  | Synth.Synthesized s -> s
  | Synth.Already_free _ -> Alcotest.fail "unexpected Already_free"
  | Synth.Unsat why -> Alcotest.failf "unexpected Unsat: %s" why
  | Synth.Gave_up why -> Alcotest.failf "unexpected Gave_up: %s" why

let is_free = function
  | Checker.Deadlock_free _ -> true
  | Checker.Deadlock_possible _ | Checker.Unknown _ -> false

(* The synthesized rule, wired into the algorithm, must satisfy the
   checker end to end — and its printed spec must compile and re-check
   free, so the artifact survives a round trip through the parser. *)
let recheck_success name net (s : Synth.success) =
  check Alcotest.bool (name ^ ": synthesized algo re-checks free") true
    (is_free (Checker.verdict net s.Synth.algo));
  match s.Synth.spec with
  | Error e -> Alcotest.failf "%s: spec printing failed: %s" name e
  | Ok src -> (
    match Dfr_spec.Spec.compile_string src with
    | Error e ->
      Alcotest.failf "%s: emitted spec does not compile: %s" name
        (Dfr_spec.Spec.error_to_string e)
    | Ok spec ->
      check Alcotest.bool
        (name ^ ": emitted spec re-checks free")
        true
        (is_free
           (Checker.verdict spec.Dfr_spec.Spec.net spec.Dfr_spec.Spec.algo)))

let test_two_buffer_bwg () =
  let net, space = space_of (entry "two-buffer") in
  let s = synthesized (Synth.synthesize ~minimize:true space) in
  check Alcotest.bool "some waits were removed" true (s.Synth.removed <> []);
  check Alcotest.int "synthesize widens nothing" 0 s.Synth.widened;
  recheck_success "two-buffer" net s

(* Theorem-4 agreement across the registry: synthesis must reach the
   same verdict as the catalogue's ground truth.  Expected-free designs
   synthesize a BWG' (hint or no hint); expected-deadlocking designs are
   refuted — an honest Unsat from Theorem 3's necessity direction. *)
let test_registry_agreement () =
  List.iter
    (fun (e : Registry.entry) ->
      let name = e.Registry.name in
      let _, space = space_of e in
      match (e.Registry.expected_deadlock_free, Synth.synthesize space) with
      | Some true, Synth.Synthesized s ->
        recheck_success name (State_space.net space) s
      | Some true, outcome ->
        Alcotest.failf "%s: expected a BWG', got %s" name
          (match outcome with
          | Synth.Unsat why -> "Unsat: " ^ why
          | Synth.Gave_up why -> "Gave_up: " ^ why
          | _ -> "Already_free")
      | Some false, Synth.Unsat _ -> ()
      | Some false, outcome ->
        Alcotest.failf "%s: expected Unsat, got %s" name
          (match outcome with
          | Synth.Synthesized _ -> "a synthesized BWG'"
          | Synth.Gave_up why -> "Gave_up: " ^ why
          | _ -> "Already_free")
      | None, _ -> ())
    Registry.all

let removed_key (s : Synth.success) =
  List.map
    (fun e -> (e.Reduction.head, e.Reduction.dest, e.Reduction.target))
    s.Synth.removed

let spec_key (s : Synth.success) =
  match s.Synth.spec with Ok src -> src | Error e -> "ERR:" ^ e

(* Bit-for-bit determinism: reruns and ~domains must not change the
   removed set or a byte of the emitted spec. *)
let test_determinism_bwg () =
  let _, space = space_of (entry "two-buffer") in
  let runs =
    List.map
      (fun domains -> synthesized (Synth.synthesize ~minimize:true ~domains space))
      [ 1; 1; 2; 4 ]
  in
  match runs with
  | first :: rest ->
    List.iteri
      (fun i s ->
        check Alcotest.bool
          (Printf.sprintf "run %d: same removed set" (i + 1))
          true
          (removed_key s = removed_key first);
        check Alcotest.string
          (Printf.sprintf "run %d: identical spec bytes" (i + 1))
          (spec_key first) (spec_key s))
      rest
  | [] -> assert false

let test_determinism_repair () =
  let e = entry "dragonfly-minimal-1vc" in
  let net = Registry.network_for e None in
  let runs =
    List.map
      (fun domains ->
        synthesized (Synth.repair ~domains net e.Registry.algo))
      [ 1; 1; 2 ]
  in
  match runs with
  | first :: rest ->
    List.iter
      (fun s ->
        check Alcotest.bool "same removed set" true
          (removed_key s = removed_key first);
        check Alcotest.string "identical spec bytes" (spec_key first)
          (spec_key s))
      rest
  | [] -> assert false

(* Repair of the deadlocking dragonfly control: widens across virtual
   channels, restricts, and the result must survive the checker and the
   spec round trip.  This is the README's quickstart example. *)
let test_repair_dragonfly () =
  let e = entry "dragonfly-minimal-1vc" in
  let net = Registry.network_for e None in
  check Alcotest.bool "control really deadlocks" false
    (is_free (Checker.verdict net e.Registry.algo));
  let s = synthesized (Synth.repair net e.Registry.algo) in
  check Alcotest.bool "widening opened copies" true (s.Synth.widened > 0);
  check Alcotest.bool "some copies were removed" true (s.Synth.removed <> []);
  check Alcotest.bool "removal is a subset of the widening" true
    (List.length s.Synth.removed <= s.Synth.widened);
  recheck_success "dragonfly repair" net s

(* A free input needs no repair. *)
let test_repair_already_free () =
  let e = entry "two-buffer" in
  let net = Registry.network_for e None in
  match Synth.repair net e.Registry.algo with
  | Synth.Already_free proof ->
    check Alcotest.bool "proof is a real proof" true
      (is_free (Checker.Deadlock_free proof))
  | _ -> Alcotest.fail "expected Already_free"

(* Theorem-6-style maximality on a minimized result: every removed wait
   gets a True-Cycle witness, and every witness replays through a
   from-scratch BWG rebuild. *)
let test_certify_and_replay () =
  let _, space = space_of (entry "two-buffer") in
  let s = synthesized (Synth.synthesize ~minimize:true space) in
  let removed = s.Synth.removed in
  match Synth.certify space ~removed with
  | Synth.Maximal items ->
    check Alcotest.int "one witness per removed entry" (List.length removed)
      (List.length items);
    List.iter
      (fun item ->
        check Alcotest.bool "witness replays" true
          (Synth.replay space ~removed item))
      items
  | Synth.Relaxable es ->
    Alcotest.failf "minimized result certified relaxable (%d entries)"
      (List.length es)
  | Synth.Cert_unknown why -> Alcotest.failf "certification gave up: %s" why

let suite =
  [
    Alcotest.test_case "two-buffer BWG' re-checks free" `Quick
      test_two_buffer_bwg;
    Alcotest.test_case "registry agreement (Theorem 4 ground truth)" `Slow
      test_registry_agreement;
    Alcotest.test_case "determinism: synthesize across domains" `Quick
      test_determinism_bwg;
    Alcotest.test_case "determinism: repair across domains" `Quick
      test_determinism_repair;
    Alcotest.test_case "repair dragonfly-minimal-1vc" `Quick
      test_repair_dragonfly;
    Alcotest.test_case "repair of a free design is Already_free" `Quick
      test_repair_already_free;
    Alcotest.test_case "certify maximal + replay witnesses" `Quick
      test_certify_and_replay;
  ]
