(** The cooperative task scheduler.

    Each round of {!run} gives every live actor a burst of up to its
    step budget. The runtime budgets a task graph from its solved SDF
    repetition vector ([Analysis.Rates]), so a well-sized graph drains
    in one sweep without a blocked probe; a budget of 1 is blind
    one-step-per-round stepping, the fallback for a chain with no
    solution.

    A full round in which nothing progresses is a wedged graph (a
    cycle of full/empty queues) and raises {!Deadlock} instead of
    spinning; the message embeds the final stats and lists every
    wedged actor with its channel states ([name[in=empty out=full]])
    so the wedge is diagnosable from the error alone.

    When tracing is enabled ({!Support.Trace.enabled}), each burst
    that counted a step emits one instant event (category ["sched"],
    named after the actor, with the burst's [fired] progress steps
    and the [round]). An actor's final [Done] return is bookkeeping,
    not work: it is neither counted as a step nor traced. *)

type stats = {
  rounds : int;  (** scheduling rounds until quiescence *)
  steps : int;  (** total actor steps taken *)
  blocked_steps : int;  (** steps that found the actor blocked *)
}

exception Deadlock of string * stats
(** The wedged-graph report plus the scheduler's partial stats at the
    moment of the wedge (rounds run, steps taken, blocked steps). The
    message itself embeds the same stats, so the report is
    self-contained even where only the string survives. *)

val run : ?on_round:(int -> unit) -> (Actor.t * int) list -> stats
(** Each round gives every live actor, in list order, a burst of up to
    its budget steps (a budget below 1 acts as 1), ending the burst
    early on the first blocked step. Actors should be listed in
    topological (source-to-sink) order so one sweep can drain the
    whole pipeline.
    [on_round] is called after each completed round with the round
    number — the runtime uses it to sample channel occupancy into the
    trace. *)
