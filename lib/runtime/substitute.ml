module Ir = Lime_ir.Ir

(* Task substitution.

   "For each task (sub)graph that has an alternative implementation,
   the runtime is in a position to perform a substitution. At present,
   the runtime algorithm for doing this substitution is primitive: it
   prefers a larger substitution to a smaller one. It also favors GPU
   and FPGA artifacts to bytecode although that choice can be manually
   directed as well." (paper section 4.2) *)

type policy =
  | Bytecode_only  (** manual direction: never substitute *)
  | Prefer_accelerators
      (** the paper's default: largest substitution first, accelerator
          over bytecode, GPU preferred over FPGA when both exist *)
  | Prefer_devices of Artifact.device list
      (** manual direction of the device preference order *)
  | Smallest_substitution
      (** ablation A1: only single-filter substitutions *)
  | Adaptive
      (** the paper's future work (section 7): pick the placement with
          the lowest estimated end-to-end cost for the observed stream
          length, instead of a fixed device preference *)

(* An execution segment: a maximal run of filters with one chosen
   implementation. *)
type segment =
  | S_bytecode of Ir.filter_info list
  | S_device of Artifact.t * Ir.filter_info list

(* Replace every registered fusible run inside a bytecode run with its
   synthetic fused filter, so even an all-bytecode plan executes the
   run as one segment (one actor, one VM call per element). The
   compiler registers only disjoint maximal runs, so greedy
   longest-first matching is unambiguous. *)
let fuse_bytecode (store : Store.t) (fs : Ir.filter_info list) :
    Ir.filter_info list =
  let arr = Array.of_list fs in
  let n = Array.length arr in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let rec try_len len =
        if len < 2 then None
        else
          let sub = Array.to_list (Array.sub arr i len) in
          match Store.find_fusion store ~chain:(Artifact.chain_uid sub) with
          | Some fused -> Some (fused, len)
          | None -> try_len (len - 1)
      in
      match try_len (n - i) with
      | Some (fused, len) -> go (i + len) (fused :: acc)
      | None -> go (i + 1) (arr.(i) :: acc)
  in
  go 0 []

(* The devices an artifact can substitute on, in candidate order. "It
   also favors GPU and FPGA artifacts to bytecode" (section 4.2);
   native shared libraries beat interpretation but lose to the
   accelerators. *)
let devices = [ Artifact.Gpu; Artifact.Fpga; Artifact.Native ]

(* The artifacts that cover [chain], in the order every policy shares:
   the fused uid before the per-stage one, then GPU, FPGA, native. The
   store sorts each uid's artifacts ({!Store.find}), so ties never
   depend on insertion order. *)
let candidates ~fuse store chain =
  let uid = Artifact.chain_uid chain in
  List.concat_map
    (fun uid ->
      let found = Store.find store ~uid in
      List.filter_map
        (fun d -> List.find_opt (fun a -> Artifact.device a = d) found)
        devices)
    (if fuse then [ Artifact.fused_prefix ^ uid; uid ] else [ uid ])

(* One planner for every policy. [choose i stop] places the maximal
   relocatable run [i, stop) from [i]: a device segment over a prefix,
   or the number of filters that stay on bytecode.

   A static policy takes the longest covered prefix on its most
   preferred allowed device, and leaves one filter on bytecode when no
   prefix is covered. The search is lazy: it stops at the first
   covered prefix and lists a prefix's candidates once. [Adaptive]
   prices each artifact that covers the whole run with [cost] against
   [cost None run]; [c < best] keeps the incumbent on a tie, so ties go
   to the earlier candidate, and to bytecode over a device that only
   equals it. When bytecode wins, the whole run stays there.

   With [fuse] (the default), bytecode runs are rewritten through the
   store's fusion registry so a fused run executes as one segment even
   on the VM. [~fuse:false] is the unfuse path: recovery re-plans a
   faulted fused segment per stage, and the planner uses it to price
   fusion. *)
let plan ?(fuse = true) ?cost (policy : policy) (store : Store.t)
    (filters : Ir.filter_info list) : segment list =
  let filters = Array.of_list filters in
  let n = Array.length filters in
  let chain i len = Array.to_list (Array.sub filters i len) in
  let rec longest preferred i len =
    if len = 0 then Error 1
    else
      let prefix = chain i len in
      let cands = candidates ~fuse store prefix in
      match
        List.find_map
          (fun d -> List.find_opt (fun a -> Artifact.device a = d) cands)
          preferred
      with
      | Some a -> Ok (a, prefix)
      | None -> longest preferred i (len - 1)
  in
  let cheapest cost i stop =
    let run = chain i (stop - i) in
    let best =
      List.fold_left
        (fun (best_cost, best) a ->
          let c = cost (Some a) run in
          if c < best_cost then c, Some a else best_cost, best)
        (cost None run, None)
        (candidates ~fuse store run)
    in
    match snd best with Some a -> Ok (a, run) | None -> Error (stop - i)
  in
  let choose =
    match policy, cost with
    | Adaptive, None -> invalid_arg "Substitute.plan: Adaptive needs ~cost"
    | Adaptive, Some cost -> cheapest cost
    | Bytecode_only, _ -> fun i stop -> Error (stop - i)
    | Smallest_substitution, _ -> fun i _ -> longest devices i 1
    | Prefer_accelerators, _ -> fun i stop -> longest devices i (stop - i)
    | Prefer_devices ds, _ -> fun i stop -> longest ds i (stop - i)
  in
  let flush acc_bc acc =
    if acc_bc = [] then acc
    else
      let run = List.rev acc_bc in
      S_bytecode (if fuse then fuse_bytecode store run else run) :: acc
  in
  let rec run_end j =
    if j < n && filters.(j).Ir.relocatable then run_end (j + 1) else j
  in
  let rec go i acc_bc acc =
    if i >= n then List.rev (flush acc_bc acc)
    else if not filters.(i).Ir.relocatable then
      go (i + 1) (filters.(i) :: acc_bc) acc
    else
      match choose i (run_end i) with
      | Ok (a, prefix) ->
        go (i + List.length prefix) [] (S_device (a, prefix) :: flush acc_bc acc)
      | Error stay -> go (i + stay) (List.rev_append (chain i stay) acc_bc) acc
  in
  go 0 [] []

let describe_plan (segments : segment list) =
  String.concat " | "
    (List.map
       (function
         | S_bytecode fs ->
           if List.exists (fun (f : Ir.filter_info) ->
                  Artifact.is_fused_uid f.Ir.uid) fs
           then Printf.sprintf "bytecode(%d fused)" (List.length fs)
           else Printf.sprintf "bytecode(%d)" (List.length fs)
         | S_device (a, fs) ->
           if Artifact.is_fused_uid (Artifact.uid a) then
             Printf.sprintf "%s(%d stages fused)"
               (Artifact.device_name (Artifact.device a))
               (List.length fs)
           else
             Printf.sprintf "%s(%d)"
               (Artifact.device_name (Artifact.device a))
               (List.length fs))
       segments)
