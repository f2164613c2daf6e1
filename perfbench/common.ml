(* Measurement helpers shared by the workloads: the clock, order
   statistics, process memory, correctness bookkeeping and the result
   line. *)

open Dfr_util
module Obs = Dfr_obs.Obs

(* Every time the benchmark reports is CPU time of the whole process:
   every domain and thread, user and system (getrusage, microseconds).
   The benchmark runs on a few cores of a shared host, and wall time also
   counts the stretches in which the host runs someone else on the core;
   with a single domain working at a time, CPU time is the wall time the
   same work takes on an unshared core.  Set-up time is CPU time too. *)
let now = Sys.time

(* Wall time, only for how long a run lasts. *)
let wall = Monotime.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f ()] with its time and its wall time, for the printed samples. *)
let time_wall f =
  let w0 = wall () in
  let v, dt = time f in
  (v, dt, wall () -. w0)

let print_samples what samples =
  Printf.printf "%s samples (s, wall s): %s\n" what
    (String.concat " "
       (List.map (fun (dt, w) -> Printf.sprintf "%.4f/%.4f" dt w) samples))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest of the usual percentiles that still has at least ten
   samples above it (nearest rank), with its level; [None] below eleven
   samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      if rank >= 1 && n - rank >= 10 then Some (p, a.(rank - 1)) else None)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Setup is repeated, at least five times and for at least two seconds of
   wall time, and its median reported: with three repeats in one second,
   serve-mix's second-long set-up spread 23-40 % over ten runs.  Each
   repeat starts from a collected heap, as a set-up at start-up does:
   without that, a set-up of a few milliseconds paid for earlier repeats'
   garbage in some repeats and not in others, and its median moved by
   38 % between runs.  The last result is the one the run uses. *)
let setup f =
  let t0 = wall () in
  let rec go k acc =
    Gc.full_major ();
    let v, dt = time f in
    let acc = dt :: acc in
    if k >= 5 && wall () -. t0 >= 2. then (v, median acc) else go (k + 1) acc
  in
  go 1 []

(* Run [f 0], [f 1], ... until [seconds] of wall time have passed, at
   least once.  Each unit starts from a collected heap, so none pays for
   the garbage of the one before it. *)
let repeat ~seconds f =
  let t0 = wall () in
  let rec go i acc =
    Gc.full_major ();
    let acc = f i :: acc in
    if wall () -. t0 < seconds then go (i + 1) acc else List.rev acc
  in
  go 0 []

(* ---- memory ---- *)

(* Peak RSS of the timed section alone: compact what setup left behind,
   then reset the kernel's high-water mark. *)
let start_timed () =
  Gc.compact ();
  ignore (Obs.reset_peak_rss ())

let peak_rss_mb () =
  match Obs.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

type gc = { major_words : float; minor : int; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    major_words = s.Gc.major_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

let gc_since g0 =
  let g1 = gc_now () in
  {
    major_words = g1.major_words -. g0.major_words;
    minor = g1.minor - g0.minor;
    major = g1.major - g0.major;
  }

(* ---- correctness ---- *)

(* Operations run and the ones whose output missed its reference.  A miss
   is keyed by the operation it belongs to, so an operation that misses
   several checks still counts once; every miss is printed. *)
let attempted = ref 0
let failed : (string, unit) Hashtbl.t = Hashtbl.create 16

let attempt n = attempted := !attempted + n

let miss ~op fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "MISS [%s] %s\n%!" op msg;
      Hashtbl.replace failed op ())
    fmt

let failures () = Hashtbl.length failed

let failed_ratio () =
  float_of_int (failures ()) /. float_of_int (max 1 !attempted)

(* ---- results ---- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-32s %16.6f %s\n" x.name x.value x.unit) ms

(* The machine-readable result: the last line of standard output. *)
let result_line ms =
  let attempted = !attempted and failed = failures () in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0 && attempted > 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Json.Obj
                      [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]
                  ))
                ms) );
       ])
