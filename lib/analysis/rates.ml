(* The SDF-style rate algebra over task graphs.

   Every actor in a task graph has a static *rate signature*: how many
   elements it pops from each input FIFO and pushes to each output
   FIFO per firing. When all rates are static constants the graph is
   synchronous dataflow, and the classic balance equations

       reps(src) * push(e)  =  reps(dst) * pop(e)      for every edge e

   either have a minimal positive integer solution — the *repetition
   vector*, from which a periodic admissible schedule (one steady
   iteration) follows — or they don't, which proves the graph can
   never reach a steady state: some FIFO starves or grows without
   bound no matter how the scheduler interleaves the actors.

   [Graphlint] uses the verdict statically (LMA010/LMA011/LMA012 and
   the per-edge LMA003 capacity check); [Runtime.Exec] solves every
   run's chain ([chain_firings]) and runs the graph in steady-state
   order with schedule-sized FIFO capacities.

   Rates are intervals (the same domain the range analysis computes
   for the [R_mkgraph] operands), so "not a static constant" is a
   first-class verdict ([Dynamic]) rather than a crash. At run time
   every rate is a constant, so the runtime solves those graphs from
   the rates of each run. *)

module Iv = Interval
module Ir = Lime_ir.Ir

type edge = {
  e_src : string;
  e_dst : string;
  e_push : Iv.t;  (** elements pushed per firing of [e_src] *)
  e_pop : Iv.t;  (** elements popped per firing of [e_dst] *)
  e_init : int;  (** initial tokens (needed for cycles to be schedulable) *)
}

type graph = {
  g_actors : string list;  (** firing-priority order (sources first) *)
  g_edges : edge list;
}

type schedule = {
  s_reps : (string * int) list;
      (** the repetition vector: firings per steady iteration *)
  s_order : (string * int) list;
      (** one steady iteration as batched firings, in admissible order *)
  s_bursts : (edge * int) list;
      (** max tokens each edge holds during that iteration *)
}

type unsolvable =
  | Dynamic of string  (** a rate is not a static constant *)
  | Starved of string  (** a rate is never positive: the edge starves *)
  | Mismatch of string  (** the balance equations have no solution *)
  | Deadlocked of string  (** solvable, but a token-free cycle blocks every order *)

let unsolvable_reason = function
  | Dynamic m | Starved m | Mismatch m | Deadlocked m -> m

let describe_unsolvable = function
  | Dynamic m -> "dynamic rates: " ^ m
  | Starved m -> "starvation: " ^ m
  | Mismatch m -> "rate mismatch: " ^ m
  | Deadlocked m -> "insufficient initial tokens: " ^ m

let describe_reps (s : schedule) =
  String.concat " "
    (List.map (fun (a, r) -> Printf.sprintf "%s=%d" a r) s.s_reps)

(* The smallest FIFO capacity that lets one firing on this edge
   complete: the producer must land a full push burst, and the
   consumer must see a full pop burst at once. A provable lower bound
   even when the rates are intervals. *)
let min_edge_capacity (e : edge) : int =
  let lo iv = match Iv.lower iv with Some l -> max l 1 | None -> 1 in
  max (lo e.e_push) (lo e.e_pop)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else a / gcd a b * b

let solve (g : graph) : (schedule, unsolvable) result =
  let exception Stop of unsolvable in
  try
    if g.g_actors = [] then
      Ok { s_reps = []; s_order = []; s_bursts = [] }
    else begin
      (* 1. Every rate must be a positive static constant. *)
      let const_rate ~what (e : edge) iv =
        match Iv.upper iv with
        | Some hi when hi <= 0 ->
          raise
            (Stop
               (Starved
                  (Printf.sprintf
                     "%s rate %s on edge %s -> %s is never positive" what
                     (Iv.to_string iv) e.e_src e.e_dst)))
        | _ -> (
          match Iv.const_of iv with
          | Some c -> c
          | None ->
            raise
              (Stop
                 (Dynamic
                    (Printf.sprintf
                       "%s rate %s on edge %s -> %s is not a static constant"
                       what (Iv.to_string iv) e.e_src e.e_dst))))
      in
      let edges =
        Array.of_list
          (List.map
             (fun e ->
               e, const_rate ~what:"push" e e.e_push,
               const_rate ~what:"pop" e e.e_pop)
             g.g_edges)
      in
      let n = List.length g.g_actors in
      let names = Array.of_list g.g_actors in
      let idx = Hashtbl.create n in
      Array.iteri (fun i a -> Hashtbl.replace idx a i) names;
      let index_of name =
        match Hashtbl.find_opt idx name with
        | Some i -> i
        | None ->
          invalid_arg (Printf.sprintf "Rates.solve: unknown actor %s" name)
      in
      (* 2. Propagate repetition ratios as normalized fractions: for
         edge src->dst with push p / pop q, reps(dst) = reps(src)*p/q.
         A BFS over the undirected adjacency covers each connected
         component; a node reached with two different ratios is a
         balance-equation conflict. *)
      let adj = Array.make n [] in
      Array.iter
        (fun (e, p, q) ->
          let s = index_of e.e_src and d = index_of e.e_dst in
          adj.(s) <- (d, p, q) :: adj.(s);
          adj.(d) <- (s, q, p) :: adj.(d))
        edges;
      let frac = Array.make n None in
      let norm (a, b) =
        let g = gcd a b in
        a / g, b / g
      in
      for start = 0 to n - 1 do
        if frac.(start) = None then begin
          frac.(start) <- Some (1, 1);
          let q = Queue.create () in
          Queue.push start q;
          while not (Queue.is_empty q) do
            let i = Queue.pop q in
            let ni, di = Option.get frac.(i) in
            List.iter
              (fun (j, p, qq) ->
                let cand = norm (ni * p, di * qq) in
                match frac.(j) with
                | None ->
                  frac.(j) <- Some cand;
                  Queue.push j q
                | Some have ->
                  if have <> cand then
                    raise
                      (Stop
                         (Mismatch
                            (Printf.sprintf
                               "%s would need repetition ratio %d/%d on one \
                                path and %d/%d on another"
                               names.(j) (fst have) (snd have) (fst cand)
                               (snd cand)))))
              adj.(i)
          done
        end
      done;
      (* 3. Scale the fractions to the minimal positive integer
         vector: multiply by the lcm of denominators, divide by the
         gcd of the results. *)
      let fracs = Array.map Option.get frac in
      let l = Array.fold_left (fun acc (_, d) -> lcm acc d) 1 fracs in
      let nums = Array.map (fun (nu, d) -> nu * (l / d)) fracs in
      let g0 = Array.fold_left gcd 0 nums in
      let reps = Array.map (fun nu -> nu / g0) nums in
      (* 4. Simulate one steady iteration (batched firings in actor
         priority order) to find an admissible order and the per-edge
         peak occupancy. A pass where nothing can fire while firings
         remain is a token-free cycle: the equations balance but no
         schedule exists. *)
      let tok = Array.map (fun (e, _, _) -> e.e_init) edges in
      let burst = Array.copy tok in
      let remaining = Array.copy reps in
      let in_edges = Array.make n [] in
      let out_edges = Array.make n [] in
      Array.iteri
        (fun k (e, p, q) ->
          out_edges.(index_of e.e_src) <- (k, p) :: out_edges.(index_of e.e_src);
          in_edges.(index_of e.e_dst) <- (k, q) :: in_edges.(index_of e.e_dst))
        edges;
      let order = ref [] in
      let left = ref (Array.fold_left ( + ) 0 remaining) in
      while !left > 0 do
        let fired = ref false in
        for i = 0 to n - 1 do
          if remaining.(i) > 0 then begin
            let can =
              List.fold_left
                (fun acc (k, q) -> min acc (tok.(k) / q))
                remaining.(i) in_edges.(i)
            in
            if can > 0 then begin
              fired := true;
              List.iter (fun (k, q) -> tok.(k) <- tok.(k) - (can * q))
                in_edges.(i);
              List.iter
                (fun (k, p) ->
                  tok.(k) <- tok.(k) + (can * p);
                  if tok.(k) > burst.(k) then burst.(k) <- tok.(k))
                out_edges.(i);
              remaining.(i) <- remaining.(i) - can;
              left := !left - can;
              order := (names.(i), can) :: !order
            end
          end
        done;
        if not !fired then
          raise
            (Stop
               (Deadlocked
                  (Printf.sprintf
                     "no admissible firing order: %s cannot fire — a cycle \
                      carries too few initial tokens"
                     (String.concat ", "
                        (List.filteri (fun i _ -> remaining.(i) > 0)
                           g.g_actors)))))
      done;
      Ok
        {
          s_reps = List.mapi (fun i a -> a, reps.(i)) g.g_actors;
          s_order = List.rev !order;
          s_bursts =
            Array.to_list (Array.mapi (fun k (e, _, _) -> e, burst.(k)) edges);
        }
    end
  with Stop why -> Error why

(* Firings per stage to move [n] tokens through a linear chain in
   which stage [i] pushes [bursts.(i)] tokens per firing and pops its
   predecessor's burst: the repetition vector times the steady
   iterations it takes the first stage to emit [n] tokens. [None] when
   the chain has no steady state (a non-positive burst). The runtime
   sizes steady-state step budgets with it ([Runtime.Exec]); the
   placement planner weights firing costs with it. *)
let chain_firings ~n (bursts : int list) : int list option =
  let stage = Array.of_list bursts in
  let name i = "s" ^ string_of_int i in
  let edges =
    List.init
      (max 0 (Array.length stage - 1))
      (fun i ->
        {
          e_src = name i;
          e_dst = name (i + 1);
          e_push = Iv.of_int stage.(i);
          e_pop = Iv.of_int stage.(i + 1);
          e_init = 0;
        })
  in
  let actors = List.mapi (fun i _ -> name i) bursts in
  match solve { g_actors = actors; g_edges = edges } with
  | Error _ -> None
  | Ok { s_reps = []; _ } -> Some []
  | Ok { s_reps = (_, first) :: _ as reps; _ } ->
    let per_iter = first * max stage.(0) 1 in
    let iterations = (n + per_iter - 1) / per_iter in
    Some (List.map (fun (_, r) -> iterations * r) reps)

(* The rate graph of a template: a linear pipeline where the source
   pushes [source_rate] per firing and every filter is elementwise
   (pop 1 / push 1) — device substitution happens later and rebatches
   at runtime, see [Runtime.Exec]. *)
let of_template ~(source_rate : Iv.t) (gt : Ir.graph_template) : graph =
  let one = Iv.of_int 1 in
  let stages =
    List.filter_map
      (function Ir.N_filter f -> Some f.Ir.uid | _ -> None)
      gt.Ir.gt_nodes
  in
  let actors = ("source" :: stages) @ [ "sink" ] in
  let rec link prev acc = function
    | [] -> List.rev acc
    | dst :: rest ->
      let push = if prev = "source" then source_rate else one in
      link dst
        ({ e_src = prev; e_dst = dst; e_push = push; e_pop = one; e_init = 0 }
        :: acc)
        rest
  in
  { g_actors = actors; g_edges = link "source" [] (stages @ [ "sink" ]) }
