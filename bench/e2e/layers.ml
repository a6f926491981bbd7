(* Per-layer host self time from a traced run.

   Every [Exec.call] runs under one [run:] root span, and the serve
   engine wraps each job's call in a [job:] span. The deepest-owner
   partition of [Observe.Spans.slices] gives every instant of those
   roots to exactly one span, whose category names the layer. The
   benchmark times the requests itself, so the time outside every root
   is measured too: for a drain, that is the serve engine's own
   dispatch code. *)

module Spans = Observe.Spans

(* Trace category -> layer. A [run:] span's self time is the host
   method's interpretation plus the runtime's hook code around every
   substitution; on stream pipelines the latter is nearly all of it
   (a few dozen VM instructions per request), so it counts as runtime. *)
let layer_of_cat = function
  | "vm" -> "bytecode"
  | "run" | "runtime" | "launch" | "backoff" -> "runtime"
  | "gpu" -> "gpu"
  | "fpga" -> "rtl"
  | "boundary" -> "wire"
  | "compiler" -> "compiler"
  | "job" -> "serve"
  | _ -> "other"

type t = {
  wall_us : float;  (** the requests' host time, as the benchmark timed it *)
  self_us : (string * float) list;  (** layer -> self time *)
  roots_us : float;  (** summed duration of the run:/job: roots *)
}

let of_events ~wall_us events =
  let roots =
    List.filter
      (fun (s : Spans.span) -> s.Spans.cat = "run" || s.Spans.cat = "job")
      (Spans.build events)
  in
  let self = Hashtbl.create 8 in
  List.iter
    (fun root ->
      List.iter
        (fun ((), (owner : Spans.span), t0, t1) ->
          let l = layer_of_cat owner.Spans.cat in
          Hashtbl.replace self l
            (Option.value (Hashtbl.find_opt self l) ~default:0.0 +. (t1 -. t0)))
        (Spans.slices ~init:() ~enter:(fun () _ -> ()) root))
    roots;
  {
    wall_us;
    self_us = List.of_seq (Hashtbl.to_seq self);
    roots_us = List.fold_left (fun a (s : Spans.span) -> a +. s.Spans.dur) 0.0 roots;
  }

let self_us t layer = Option.value (List.assoc_opt layer t.self_us) ~default:0.0

let share t layer =
  if t.wall_us > 0.0 then 100.0 *. self_us t layer /. t.wall_us else 0.0
