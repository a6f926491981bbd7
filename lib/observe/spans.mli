(** Span-tree reconstruction and the deepest-owner timeline partition.

    The trace ring holds completed spans flat, in completion order;
    {!build} rebuilds the nesting by interval containment (the runtime
    is single-threaded, so spans nest properly — saved traces carry a
    few ns of formatting jitter, which is absorbed by clamping).

    {!slices} partitions a root span's wall time so each instant is
    owned by its deepest enclosing span. Slice lengths sum exactly to
    the root's duration by construction — the invariant that lets the
    report layer attribute wall time without double counting. *)

type span = {
  name : string;
  cat : string;
  ts : float;  (** start, microseconds on the sink's timeline *)
  dur : float;
  args : (string * Support.Trace.arg) list;
  mutable children : span list;  (** start order *)
}

val eps : float
(** Containment slack in microseconds: saved traces round-trip through
    ["%.3f"] formatting, so nested endpoints can disagree by ~1ns. *)

val build : Support.Trace.event list -> span list
(** Roots in start order. Instants and counters are ignored. *)

val slices :
  init:'c -> enter:('c -> span -> 'c) -> span -> ('c * span * float * float) list
(** [slices ~init ~enter root] is the deepest-owner partition of
    [root]'s interval, in time order, as [(ctx, owner, t0, t1)]
    tuples. [enter] threads context top-down: it sees every span on the
    path from the root, and each slice carries the context computed at
    its owner (the report derives attributed device/segment this way). *)

(** {2 Argument accessors} *)

val find_arg : span -> string -> Support.Trace.arg option
val arg_int : span -> string -> int option
val arg_bool : span -> string -> bool option
