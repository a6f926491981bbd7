module V = Wire.Value

(* Task actors and their connections.

   "A connect operation => creates a FIFO queue between tasks. When the
   program executes, the task creation and connection operators are
   reflected in an actual graph of runtime objects ... the runtime
   creates a thread for each task. These threads will block on the
   incoming connections until enough data is available" (paper
   section 4.1).

   OCaml 5 has real threads, but deterministic tests matter more here
   than parallel execution, so actors are cooperative: the scheduler
   gives each a burst of steps per round, and an actor reports whether
   it progressed, blocked on a queue, or finished. The blocking structure — who waits
   on which bounded FIFO — is identical to the threaded original. *)

(* A bounded FIFO connection carrying Lime values. Closing marks the
   end of the stream. *)
module Channel = struct
  type t = {
    capacity : int;
    q : V.t Queue.t;
    mutable closed : bool;
    mutable total_pushed : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Channel.create: capacity < 1";
    { capacity; q = Queue.create (); closed = false; total_pushed = 0 }

  let is_full t = Queue.length t.q >= t.capacity
  let is_empty t = Queue.is_empty t.q

  let push t v =
    if is_full t then invalid_arg "Channel.push: full";
    if t.closed then invalid_arg "Channel.push: closed";
    t.total_pushed <- t.total_pushed + 1;
    Queue.push v t.q

  let pop_opt t = Queue.take_opt t.q
  let close t = t.closed <- true

  let drained t = t.closed && Queue.is_empty t.q
  (** No more data will ever arrive. *)
end

type status = Progress | Blocked | Done

type t = {
  name : string;
  step : unit -> status;
  ports : (string * Channel.t) list;
      (** named connections, for diagnostics: which FIFO is this actor
          reading/writing, and in what state is it *)
}

let make ~name ?(ports = []) step = { name; step; ports }

(* e.g. "full", "empty", "3/16", "drained" — the states that matter
   when diagnosing a wedged graph. *)
let port_state (c : Channel.t) =
  let occupancy = Queue.length c.Channel.q in
  let base =
    if Channel.is_full c then "full"
    else if occupancy = 0 then "empty"
    else Printf.sprintf "%d/%d" occupancy c.Channel.capacity
  in
  if c.Channel.closed then base ^ ",closed" else base

let describe_ports (t : t) =
  match t.ports with
  | [] -> ""
  | ports ->
    "["
    ^ String.concat " "
        (List.map (fun (name, c) -> name ^ "=" ^ port_state c) ports)
    ^ "]"

(* --- the standard actors -------------------------------------------- *)

(* Produces the elements of an array, [rate] per step. *)
(* A rate <= 0 source never pushes while elements remain, so the graph
   wedges — the scheduler reports [Deadlock]. [Analysis.Graphlint]
   flags this statically (LMA002) before the graph ever runs. *)
let source ~name ~(rate : int) (elements : V.t list) (out : Channel.t) : t =
  let remaining = ref elements in
  let step () =
    if !remaining = [] then begin
      if not out.Channel.closed then Channel.close out;
      Done
    end
    else begin
      let pushed = ref 0 in
      while !pushed < rate && (not (Channel.is_full out)) && !remaining <> [] do
        match !remaining with
        | x :: rest ->
          Channel.push out x;
          remaining := rest;
          incr pushed
        | [] -> ()
      done;
      if !pushed > 0 then Progress else Blocked
    end
  in
  make ~name ~ports:[ "out", out ] step

(* Applies [f] to each element; one element per step. *)
let filter ~name ~(f : V.t -> V.t) (inp : Channel.t) (out : Channel.t) : t =
  let step () =
    if Channel.drained inp then begin
      if not out.Channel.closed then Channel.close out;
      Done
    end
    else if Channel.is_full out then Blocked
    else
      match Channel.pop_opt inp with
      | Some x ->
        Channel.push out (f x);
        Progress
      | None -> Blocked
  in
  make ~name ~ports:[ "in", inp; "out", out ] step

(* A device segment: collects input, launches the device, then emits
   the results. With [chunk = None] the whole stream is batched into a
   single launch (one crossing each way); with [chunk = Some k] the
   device is launched every [k] elements, trading per-launch overhead
   for earlier first results and a bounded staging buffer — the
   communication-granularity knob of experiment A6. *)
let device_segment ?(chunk : int option) ~name
    ~(launch : V.t list -> V.t list) (inp : Channel.t) (out : Channel.t) : t =
  let collected = ref [] in
  let count = ref 0 in
  let emitting = ref [] in
  let finished = ref false in
  let chunk_full () =
    match chunk with Some k -> !count >= max k 1 | None -> false
  in
  let fire () =
    emitting := launch (List.rev !collected);
    collected := [];
    count := 0
  in
  let step () =
    match !emitting with
    | x :: rest ->
      if Channel.is_full out then Blocked
      else begin
        Channel.push out x;
        emitting := rest;
        Progress
      end
    | [] ->
      if !finished then begin
        if not out.Channel.closed then Channel.close out;
        Done
      end
      else if chunk_full () then begin
        fire ();
        Progress
      end
      else begin
        match Channel.pop_opt inp with
        | Some x ->
          collected := x :: !collected;
          incr count;
          Progress
        | None ->
          if Channel.drained inp then begin
            finished := true;
            if !collected <> [] then fire ();
            Progress
          end
          else Blocked
      end
  in
  make ~name ~ports:[ "in", inp; "out", out ] step

(* Stores arriving elements into a destination array in order. *)
let sink ~name (dest : V.t) (inp : Channel.t) : t =
  let index = ref 0 in
  let step () =
    match Channel.pop_opt inp with
    | Some x ->
      Lime_ir.Interp.array_set dest !index x;
      incr index;
      Progress
    | None -> if Channel.drained inp then Done else Blocked
  in
  make ~name ~ports:[ "in", inp ] step
