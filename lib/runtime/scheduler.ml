(* The cooperative task scheduler.

   Each round gives every live actor one burst of up to its step
   budget. The runtime budgets each actor with its per-sweep share of
   the solved SDF repetition vector ([Analysis.Rates]), so the
   scheduler never probes an actor that provably has nothing to do;
   a budget of 1 steps blindly, once per actor per round.

   A round in which no actor progresses and none finished means the
   graph is wedged (a cycle of full/empty queues), which is reported
   rather than spinning forever. An actor's final [Done] return is
   bookkeeping, not work: it is neither counted as a step nor
   traced. *)

module Trace = Support.Trace

type stats = {
  rounds : int;  (** scheduling rounds until quiescence *)
  steps : int;  (** total actor steps taken *)
  blocked_steps : int;  (** steps that found the actor blocked *)
}

exception Deadlock of string * stats

(* The deadlock report embeds the scheduler's final stats and names
   every wedged actor together with its channel states, so the
   full/empty cycle is diagnosable from the message alone
   (e.g. "bc:f[in=empty out=full]"). *)
let deadlock_message (live : Actor.t list) (s : stats) =
  Printf.sprintf
    "task graph wedged after %d round(s), %d step(s), %d blocked; blocked \
     actors: %s"
    s.rounds s.steps s.blocked_steps
    (String.concat ", "
       (List.map
          (fun (a : Actor.t) -> a.name ^ Actor.describe_ports a)
          live))

let run ?(on_round = fun _ -> ()) (budgeted : (Actor.t * int) list) : stats =
  let live = ref budgeted in
  let rounds = ref 0 in
  let steps = ref 0 in
  let blocked = ref 0 in
  let tracing = Trace.enabled () in
  while !live <> [] do
    incr rounds;
    let progressed = ref false in
    live :=
      List.filter
        (fun actor_budget ->
          (* one parameter, not a tuple pattern: this closure is built
             every round, and a tupled one is a word larger *)
          let (a : Actor.t), budget = actor_budget in
          (* One burst: fire up to [budget] times (at least once),
             stopping early on the first block (the burst found the
             FIFO limit) or on completion. A budget is this actor's
             share of the schedule, so a well-sized graph runs the
             whole sweep without a single blocked probe. *)
          let fired = ref 0 in
          let keep = ref true in
          let running = ref true in
          while !running do
            match a.step () with
            | Actor.Progress ->
              progressed := true;
              incr steps;
              incr fired;
              if !fired >= budget then running := false
            | Actor.Blocked ->
              incr steps;
              incr blocked;
              running := false
            | Actor.Done ->
              progressed := true;
              keep := false;
              running := false
          done;
          if tracing && (!fired > 0 || !keep) then
            Trace.instant ~cat:"sched"
              ~args:[ "fired", Trace.Int !fired; "round", Trace.Int !rounds ]
              a.name;
          !keep)
        !live;
    on_round !rounds;
    if (not !progressed) && !live <> [] then begin
      let s = { rounds = !rounds; steps = !steps; blocked_steps = !blocked } in
      raise (Deadlock (deadlock_message (List.map fst !live) s, s))
    end
  done;
  { rounds = !rounds; steps = !steps; blocked_steps = !blocked }
