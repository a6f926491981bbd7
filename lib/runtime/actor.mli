(** Task actors and their FIFO connections (paper section 4.1).

    A connect operation creates a FIFO queue between tasks; the runtime
    gives each task a thread that blocks on its incoming connection.
    Here actors are cooperative — the scheduler steps them and each
    reports progress, blockage, or completion — with the identical
    blocking structure, chosen for deterministic tests (DESIGN.md §5). *)

module V = Wire.Value

(** A bounded FIFO connection carrying Lime values (only values flow
    between tasks). Closing marks end-of-stream. *)
module Channel : sig
  type t = {
    capacity : int;
    q : V.t Queue.t;
    mutable closed : bool;
    mutable total_pushed : int;
  }

  val create : capacity:int -> t
  (** @raise Invalid_argument if [capacity < 1]. *)

  val is_full : t -> bool
  val is_empty : t -> bool

  val push : t -> V.t -> unit
  (** @raise Invalid_argument when full or closed. *)

  val pop_opt : t -> V.t option
  val close : t -> unit

  val drained : t -> bool
  (** Closed and empty: no more data will ever arrive. *)
end

type status = Progress | Blocked | Done

type t = {
  name : string;
  step : unit -> status;
  ports : (string * Channel.t) list;
      (** named connections for diagnostics (e.g. [["in", c1; "out", c2]]);
          the standard actors below declare theirs *)
}

val make : name:string -> ?ports:(string * Channel.t) list -> (unit -> status) -> t

val describe_ports : t -> string
(** E.g. ["[in=empty out=full]"]; [""] when the actor declared no
    ports. Used by the scheduler's deadlock report. *)

val source : name:string -> rate:int -> V.t list -> Channel.t -> t
(** Produces the elements of a stream, up to [rate] per step (the
    argument of Lime's [arr.source(rate)]). Closes the channel when
    exhausted. *)

val filter : name:string -> f:(V.t -> V.t) -> Channel.t -> Channel.t -> t
(** Applies [f] elementwise, one element per step; propagates
    end-of-stream. *)

val device_segment :
  ?chunk:int ->
  name:string ->
  launch:(V.t list -> V.t list) ->
  Channel.t ->
  Channel.t ->
  t
(** A substituted subgraph: collects input, calls [launch] on the
    batch, then emits results. [chunk = Some k] launches every [k]
    elements (bounded staging, earlier results — experiment A6);
    [None] batches the whole stream into one launch. *)

val sink : name:string -> V.t -> Channel.t -> t
(** Stores arriving elements into the destination array in order. *)
