(* Span-tree reconstruction over a flat trace.

   The ring buffer stores completed spans in completion order; the
   runtime is single-threaded, so spans from one run nest properly by
   interval containment. Reconstruction sorts by start time (outermost
   first on ties) and rebuilds the tree with a stack.

   The other half is the timeline partition: every instant of a span's
   wall time is owned by its *deepest* enclosing span, so the slices of
   a root form an exact partition of the root's interval. That is what
   makes attribution sum to wall time by construction — the tested
   invariant the report layer builds on. *)

module Trace = Support.Trace

type span = {
  name : string;
  cat : string;
  ts : float;  (* start, us on the sink's timeline *)
  dur : float;  (* us *)
  args : (string * Trace.arg) list;
  mutable children : span list;  (* start order *)
}

(* Saved traces round-trip through "%.3f" microsecond formatting, so a
   child's endpoint can poke up to 1ns past its parent's; containment
   is tested with a few ns of slack and slices are clamped to the
   parent interval so the partition stays exact anyway. *)
let eps = 0.005

let find_arg sp key = List.assoc_opt key sp.args

let arg_int sp key =
  match find_arg sp key with
  | Some (Trace.Int i) -> Some i
  | Some (Trace.Float f) -> Some (int_of_float f)
  | _ -> None

let arg_bool sp key =
  match find_arg sp key with Some (Trace.Bool b) -> Some b | _ -> None

let contains outer inner =
  inner.ts >= outer.ts -. eps
  && inner.ts +. inner.dur <= outer.ts +. outer.dur +. eps

let build (events : Trace.event list) : span list =
  let spans =
    events
    |> List.filter_map (function
         | Trace.Span { name; cat; ts_us; dur_us; args } ->
           Some
             {
               name;
               cat;
               ts = ts_us;
               dur = Float.max 0.0 dur_us;
               args;
               children = [];
             }
         | Trace.Instant _ | Trace.Counter _ -> None)
  in
  let indexed = List.mapi (fun i sp -> i, sp) spans in
  (* start ascending; on equal starts the longer span is the outer
     one; on fully equal intervals the ring's completion order breaks
     the tie (the parent completes after the child, so the later ring
     index is the outer span). *)
  let ordered =
    List.stable_sort
      (fun (i, a) (j, b) ->
        match Float.compare a.ts b.ts with
        | 0 -> (
          match Float.compare b.dur a.dur with
          | 0 -> Int.compare j i
          | c -> c)
        | c -> c)
      indexed
    |> List.map snd
  in
  let roots = ref [] in
  let stack = ref [] in
  List.iter
    (fun sp ->
      let rec unwind () =
        match !stack with
        | top :: rest when not (contains top sp) ->
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | [] -> roots := sp :: !roots
      | top :: _ -> top.children <- sp :: top.children);
      stack := sp :: !stack)
    ordered;
  let rec finalize sp =
    sp.children <- List.rev sp.children;
    List.iter finalize sp.children
  in
  let roots = List.rev !roots in
  List.iter finalize roots;
  roots

(* Deepest-owner partition of [root]'s interval. [enter] threads
   context top-down (the report derives attributed device and segment
   from it); each emitted slice carries the context at its owner.
   Slices are emitted in time order and their lengths sum exactly to
   [root.dur]. *)
let slices ~init ~enter root =
  let out = ref [] in
  let rec go ctx ~lo ~hi sp =
    let ctx = enter ctx sp in
    let t0 = Float.min (Float.max sp.ts lo) hi in
    let t1 = Float.min (Float.max (sp.ts +. sp.dur) t0) hi in
    let cursor = ref t0 in
    List.iter
      (fun c ->
        let c0 = Float.min (Float.max c.ts !cursor) t1 in
        if c0 > !cursor then out := (ctx, sp, !cursor, c0) :: !out;
        go ctx ~lo:c0 ~hi:t1 c;
        cursor := Float.min (Float.max (c.ts +. c.dur) c0) t1)
      sp.children;
    if t1 > !cursor then out := (ctx, sp, !cursor, t1) :: !out
  in
  go init ~lo:root.ts ~hi:(root.ts +. root.dur) root;
  List.rev !out
