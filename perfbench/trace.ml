(* The benchmark's own span recorder.

   Spans are taken around the benchmark's calls into each layer's public
   functions; nothing inside lib/ is probed, and Dfr_obs is left exactly
   as the workload configured it.  Spans are kept in memory and written
   out once, when the run ends.  Spans are timed on the benchmark's clock
   ([Common.now], the process's CPU time).  Everything here runs on the
   domain that drives the workload, so the open-span stack needs no
   locking.

   A span marked [shadow] times a call the benchmark makes only to
   measure a layer that one of the workload's own calls contains: routing
   validation inside [State_space.build], the spec and checker layers
   inside the serving engine.  Shadow time is reported for its layer but
   excluded from the unit of work it sits in, so no layer is counted
   twice. *)

open Dfr_util

(* A span is [stride] consecutive floats of one unboxed array: start, end,
   parent index (-1 for a root), unit of work, interned name, shadow flag.
   Hundreds of thousands of spans then add nothing for the garbage
   collector to scan, which would otherwise slow the traced workload. *)
let stride = 6
let data = ref (Float.Array.create (1024 * stride))
let len = ref 0
let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_of = ref [||]

let intern name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names name i;
    name_of := Array.append !name_of [| name |];
    i

let field i k = Float.Array.get !data ((i * stride) + k)
let t0 i = field i 0
let t1 i = field i 1
let parent i = int_of_float (field i 2)
let request_of i = int_of_float (field i 3)
let name i = !name_of.(int_of_float (field i 4))
let is_shadow i = field i 5 = 1.

let on = ref false
let stack : int list ref = ref []
let request = ref 0
let shadow_total = ref 0.

(* Per-layer counts the traced run reports, accumulated by name. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let counted name = Option.value ~default:0. (Hashtbl.find_opt counts name)
let count name v = if !on then Hashtbl.replace counts name (counted name +. v)

let enabled () = !on
let start () = on := true

(* Run [f] unrecorded, e.g. a pass made only to read Dfr_obs counters. *)
let without f =
  let was = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := was) f

let set_request r = request := r

(* Cumulative shadow time so far; a unit's own time is its time minus the
   shadow time recorded while it ran. *)
let shadow_time () = !shadow_total

let span ?(shadow = false) name f =
  if not !on then f ()
  else begin
    let id = !len in
    incr len;
    if !len * stride > Float.Array.length !data then begin
      let bigger = Float.Array.create (2 * Float.Array.length !data) in
      Float.Array.blit !data 0 bigger 0 (Float.Array.length !data);
      data := bigger
    end;
    let set k v = Float.Array.set !data ((id * stride) + k) v in
    set 2 (float_of_int (match !stack with p :: _ -> p | [] -> -1));
    set 3 (float_of_int !request);
    set 4 (float_of_int (intern name));
    set 5 (if shadow then 1. else 0.);
    stack := id :: !stack;
    let start = Common.now () in
    let finish () =
      let stop = Common.now () in
      stack := List.tl !stack;
      if shadow then shadow_total := !shadow_total +. (stop -. start);
      set 0 start;
      set 1 stop
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Per span name: (calls, total seconds, self seconds), where self time is
   the span's duration minus the part of it its child spans cover (children
   of one parent never overlap: they run one after another on this
   domain). *)
let layers () =
  let covered = Array.make !len 0. in
  for i = 0 to !len - 1 do
    let p = parent i in
    if p >= 0 then covered.(p) <- covered.(p) +. (t1 i -. t0 i)
  done;
  let acc = Hashtbl.create 32 in
  for i = 0 to !len - 1 do
    let dur = t1 i -. t0 i in
    let calls, total, self =
      Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc (name i))
    in
    Hashtbl.replace acc (name i)
      (calls + 1, total +. dur, self +. dur -. covered.(i))
  done;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let durations n =
  List.filter_map
    (fun i -> if name i = n then Some (t1 i -. t0 i) else None)
    (List.init !len Fun.id)

let self_time n =
  match List.assoc_opt n (layers ()) with
  | Some (_, _, self) -> self
  | None -> 0.

(* Chrome trace_event document of every recorded span; [args] carries the
   span's parent, its unit of work and whether it was a shadow call. *)
let write path =
  let origin = if !len = 0 then 0. else t0 0 in
  let event i =
    Json.Obj
      [
        ("name", Json.String (name i));
        ("ph", Json.String "X");
        ("ts", Json.Float ((t0 i -. origin) *. 1e6));
        ("dur", Json.Float ((t1 i -. t0 i) *. 1e6));
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int i);
              ("parent", Json.Int (parent i));
              ("request", Json.Int (request_of i));
              ("shadow", Json.Bool (is_shadow i));
            ] );
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (List.init !len event));
        ("displayTimeUnit", Json.String "ms");
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc))
