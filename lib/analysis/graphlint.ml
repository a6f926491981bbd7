(* Static checks over task-graph templates.

   The scheduler detects a wedged graph at run time ([Scheduler.Deadlock]
   fires when a whole round makes no progress while actors still hold
   or await data). Several of those wedges are statically decidable
   from the template shape plus the intervals of the [R_mkgraph]
   operands the range analysis computed. The rate checks all route
   through the SDF balance equations ([Rates.solve]):

   - a source whose rate is never positive can never push an element,
     so every FIFO in the source-to-sink cycle stays empty forever;
   - balance equations with no solution (starvation, a rate mismatch,
     or a token-free cycle) mean no steady state exists at any FIFO
     capacity;
   - an edge whose per-firing burst provably exceeds the FIFO capacity
     can never complete a firing in one scheduling step (throughput
     hazard) — on *any* edge, not just the source's;
   - a template constructed only in unreachable code means its filters
     are dead weight for every backend. *)

module Ir = Lime_ir.Ir
module Iv = Interval

type severity = [ `Error | `Warning | `Note ]

type finding = {
  g_sev : severity;
  g_loc : Support.Srcloc.t;
  g_uid : string;  (** the template the finding is about *)
  g_code : string;
  g_msg : string;
}

let template_loc (gt : Ir.graph_template) =
  let rec first = function
    | Ir.N_filter f :: _ -> f.Ir.floc
    | _ :: rest -> first rest
    | [] -> Support.Srcloc.dummy
  in
  first gt.gt_nodes

(* The interval of the source rate operand: walk the node list
   consuming dynamic operands the same way the VM does. *)
let source_rate (gt : Ir.graph_template) (ops : Iv.t list) : Iv.t option =
  let rec walk idx = function
    | [] -> None
    | Ir.N_source _ :: _ -> List.nth_opt ops (idx + 1)
    | n :: rest -> walk (idx + Ir.tnode_operand_count n) rest
  in
  walk 0 gt.gt_nodes

let check (prog : Ir.program) ~fifo_capacity
    ~(graph_args : (string * Iv.t list) list) : finding list =
  let findings = ref [] in
  Ir.String_map.iter
    (fun uid (gt : Ir.graph_template) ->
      let add sev loc code fmt =
        Printf.ksprintf
          (fun msg ->
            findings :=
              { g_sev = sev; g_loc = loc; g_uid = uid; g_code = code;
                g_msg = msg }
              :: !findings)
          fmt
      in
      let loc = template_loc gt in
      match List.assoc_opt uid graph_args with
      | None ->
        add `Warning loc "LMA004"
          "task graph %s is constructed only in unreachable code; its \
           filters are dead"
          uid
      | Some ops -> (
        match source_rate gt ops with
        | None -> ()
        | Some rate -> (
          let g = Rates.of_template ~source_rate:rate gt in
          match Rates.solve g with
          | Error (Rates.Starved why) ->
            (* The decisive wedge keeps its historical code alongside
               the balance-equation verdict. *)
            add `Error loc "LMA002"
              "task graph %s: source rate %s is never positive — the \
               source can never push an element, every FIFO in the \
               source-to-sink cycle stays empty, and the graph wedges \
               (runtime Scheduler.Deadlock)"
              uid (Iv.to_string rate);
            add `Error loc "LMA010"
              "task graph %s: balance equations unsolvable (%s) — no \
               steady state exists at any FIFO capacity"
              uid why
          | Error (Rates.Mismatch why) | Error (Rates.Deadlocked why) ->
            add `Error loc "LMA010"
              "task graph %s: balance equations unsolvable (%s) — no \
               steady state exists at any FIFO capacity"
              uid why
          | Error (Rates.Dynamic _) ->
            (* Interval rates: keep the historical may-wedge and
               capacity warnings on the provable bounds, and note the
               scheduling consequence. *)
            (match Iv.lower rate with
            | Some lo when lo <= 0 ->
              add `Warning loc "LMA005"
                "task graph %s: source rate %s may be non-positive; a \
                 non-positive rate wedges the graph" uid (Iv.to_string rate)
            | Some lo when lo > fifo_capacity ->
              add `Warning loc "LMA003"
                "task graph %s: source rate %s exceeds the FIFO capacity \
                 %d; the source can never complete a full burst per \
                 scheduling step"
                uid (Iv.to_string rate) fifo_capacity
            | _ -> ());
            add `Note loc "LMA011"
              "task graph %s: rates are not static constants, so no \
               static schedule exists; the runtime solves each run's \
               schedule from that run's rates"
              uid
          | Ok sched ->
            List.iter
              (fun (e : Rates.edge) ->
                let need = Rates.min_edge_capacity e in
                if need > fifo_capacity then
                  add `Warning loc "LMA003"
                    "task graph %s: edge %s -> %s moves %d element(s) per \
                     firing but the FIFO capacity is %d; a full burst can \
                     never complete in one scheduling step"
                    uid e.Rates.e_src e.Rates.e_dst need fifo_capacity)
              g.Rates.g_edges;
            add `Note loc "LMA012"
              "task graph %s: balance equations solved; repetition vector \
               [%s] (steady-state schedulable)"
              uid
              (Rates.describe_reps sched))))
    prog.templates;
  List.rev !findings
