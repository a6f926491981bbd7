(* The artifact store.

   "the unique identifiers of tasks, which are stored in the task
   runtime objects, can be looked up efficiently in the artifact store
   populated by the backends" (paper section 4.2). *)

type t = {
  by_uid : (string, Artifact.t list) Hashtbl.t;
  fusions : (string, Lime_ir.Ir.filter_info) Hashtbl.t;
      (* plain chain uid ("a+b+c") -> the synthetic fused filter the
         compiler registered for that run; consulted by [Substitute]
         so even all-bytecode plans execute a fused run as one segment *)
  mutable manifest : Artifact.manifest;
  mutable quarantined : (Artifact.device * string) list;
      (* devices pulled out of service at runtime after a fault, with
         the reason; lookups treat their artifacts as absent so
         re-planning never picks them again *)
  mutable resident : (Artifact.device * string list) list;
      (* per device, the segment uids whose inputs/code were last
         staged there (most recent first, bounded LRU) — the transfer
         state a data-aware scheduler weighs against raw makespan *)
}

(* Residency is scheduling state, not correctness state: it only
   biases placement, so a small LRU per device is enough to capture
   "this job's segments are already over the wire". *)
let residency_capacity = 32

let create () =
  {
    by_uid = Hashtbl.create 64;
    fusions = Hashtbl.create 8;
    manifest = { entries = []; exclusions = [] };
    quarantined = [];
    resident = [];
  }

let add_fusion t ~chain fused = Hashtbl.replace t.fusions chain fused
let find_fusion t ~chain = Hashtbl.find_opt t.fusions chain
let fusion_count t = Hashtbl.length t.fusions

let add t artifact =
  let uid = Artifact.uid artifact in
  let existing = Option.value (Hashtbl.find_opt t.by_uid uid) ~default:[] in
  Hashtbl.replace t.by_uid uid (artifact :: existing);
  t.manifest <-
    {
      t.manifest with
      entries = t.manifest.entries @ [ Artifact.manifest_entry_of artifact ];
    }

let record_exclusion t ~uid ~device ~reason =
  t.manifest <-
    {
      t.manifest with
      exclusions =
        t.manifest.exclusions
        @ [ { Artifact.ex_uid = uid; ex_device = device; ex_reason = reason } ];
    }

(* Most recently used first. *)
let residents t ~device =
  Option.value (List.assoc_opt device t.resident) ~default:[]

let note_resident t ~device ~uid =
  let kept =
    List.filter (fun u -> u <> uid) (residents t ~device)
  in
  let entry =
    uid
    ::
    (if List.length kept >= residency_capacity then
       List.filteri (fun i _ -> i < residency_capacity - 1) kept
     else kept)
  in
  t.resident <- (device, entry) :: List.remove_assoc device t.resident

let is_resident t ~device ~uid = List.mem uid (residents t ~device)

let evict_residents t ~device =
  t.resident <- List.remove_assoc device t.resident

let quarantine t ~device ~reason =
  if not (List.mem_assoc device t.quarantined) then begin
    t.quarantined <- (device, reason) :: t.quarantined;
    (* a quarantined device's staged state is gone with it: nothing
       should score a residency bonus on a device plans cannot pick *)
    evict_residents t ~device
  end

let is_quarantined t ~device = List.mem_assoc device t.quarantined
let quarantined t = List.rev t.quarantined
let clear_quarantine t = t.quarantined <- []

(* Lookup order is part of the runtime's determinism contract:
   [Substitute.plan] breaks ties between artifacts that cover chains
   of equal length on equally-preferred devices by taking the first
   match here, so the result must not depend on store insertion
   order. Sort by (uid, device name): a stable, content-derived key. *)
let artifact_order a b =
  match String.compare (Artifact.uid a) (Artifact.uid b) with
  | 0 ->
    String.compare
      (Artifact.device_name (Artifact.device a))
      (Artifact.device_name (Artifact.device b))
  | c -> c

let find t ~uid =
  List.filter
    (fun a -> not (is_quarantined t ~device:(Artifact.device a)))
    (Option.value (Hashtbl.find_opt t.by_uid uid) ~default:[])
  |> List.stable_sort artifact_order

let find_on t ~uid ~device =
  List.find_opt (fun a -> Artifact.device a = device) (find t ~uid)

let manifest t = t.manifest

let artifact_count t =
  Hashtbl.fold (fun _ l acc -> acc + List.length l) t.by_uid 0
