(* Entry point of the benchmark executable.  perfbench/run.py builds it and
   passes its own arguments through:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--rev REV] [--trace-file PATH]

   It prints its environment, per-workload figures and any correctness
   miss, and as its last line one JSON object: the end-to-end metrics
   untraced, the per-layer metrics traced. *)

open Dfr_util

let workloads =
  [
    ("cold-dragonfly", Cold_dragonfly.run);
    ("fault-sweep", Fault_sweep.run);
    ("serve-mix", Serve_mix.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev \
     REV] [--trace-file PATH]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload " ^ workload);
      exit 2
  in
  if seconds < 1 then usage ();
  let env =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("trace", Json.Bool traced);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("pool_cap", Json.Int (Domain_pool.cap ()));
        ("domains", Json.Int 1);
        ("serve_workers", Json.Int Serve_mix.workers);
        ("ocaml", Json.String Sys.ocaml_version);
        ( "rev",
          Json.String
            (Option.value ~default:"unknown" (Hashtbl.find_opt args "rev")) );
      ]
  in
  Printf.printf "env %s\n%!" (Json.to_string env);
  let metrics = run ~seed ~seconds:(float_of_int seconds) ~traced in
  Common.print_metrics
    (if traced then "per-layer metrics:" else "end-to-end metrics:")
    metrics;
  Printf.printf "attempted %d, failed %d (failed_ratio %g)\n" !Common.attempted
    (Common.failures ()) (Common.failed_ratio ());
  (match Hashtbl.find_opt args "trace-file" with
  | Some path when traced -> Trace.write path
  | _ -> ());
  print_endline (Common.result_line metrics)
