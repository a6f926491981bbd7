(** Deterministic device-fault injection.

    A *fault schedule* declares which device models fail, on which
    segments, on which invocations. The GPU and RTL simulators, the
    host/device boundary and the native segment executor call {!check}
    at the top of every launch; when the installed schedule matches,
    {!Device_fault} is raised and the runtime's failure protocol
    (retry with backoff, then dynamic re-substitution down to
    bytecode) takes over. Decisions are pure functions of
    (schedule seed, device, segment, invocation count), driven by the
    same xorshift generator as the workload inputs ({!Rng}), so a
    seeded run injects the identical fault sequence every time.

    Like {!Trace}, the schedule is process-wide and off by default:
    with nothing installed, {!check} is one match on a [ref].
    See [docs/FAULT_TOLERANCE.md]. *)

type info = {
  f_device : string;  (** ["gpu"] | ["fpga"] | ["native"] | ["wire"] *)
  f_segment : string;  (** artifact / chain uid, or the boundary label *)
  f_invocation : int;  (** 0-based launch count for (device, segment) *)
  f_reason : string;  (** human-readable description of the injection *)
}

exception Device_fault of info
(** The fault raised by an injection point. The runtime catches this —
    and only this — for retry and re-substitution; real device errors
    ([Device_error], [Simulation_error]) keep propagating. *)

type when_ =
  | Always
  | First_n of int  (** fail the first [n] invocations *)
  | At of int list  (** fail exactly these invocation indices *)
  | Prob of float  (** fail each invocation with probability [p] *)

type clause = { c_device : string; c_segment : string; c_when : when_ }
type schedule = { seed : int64; clauses : clause list }

val parse_spec : string -> (schedule, string) result
(** Grammar (see [docs/FAULT_TOLERANCE.md]):
    {v
SPEC    := CLAUSE (',' CLAUSE)* [',' 'seed=' INT]
CLAUSE  := DEVICE ':' SEGMENT [':' WHEN]
DEVICE  := 'gpu' | 'fpga' | 'native' | 'wire' | '*'
SEGMENT := literal uid | '*' | prefix '*'
WHEN    := 'always' | 'n=' INT | 'at=' INT ('/' INT)* | 'p=' FLOAT
    v}
    e.g. ["gpu:*:always"], ["fpga:Dsp*:p=0.25,seed=42"],
    ["wire:pcie:at=0/2"]. The default [WHEN] is [always]; the default
    seed is [0x5EED]. *)

val describe : schedule -> string
(** Canonical spec string for a schedule (reparses to itself). *)

val install : schedule -> unit
(** Install the process-wide schedule and reset invocation counters
    and the injected-fault count. *)

val clear : unit -> unit
(** Remove the schedule; {!check} becomes a no-op. *)

val enabled : unit -> bool

val without : (unit -> 'a) -> 'a
(** Run [f] with injection suspended (schedule and counters preserved,
    reinstalled on return or raise). Infrastructure launches — the
    placement calibrator's microbenchmarks — run under this so a
    schedule only ever charges application launches: a [n=1] budget
    must fire in the tenant's job, not inside a measurement probe. *)

val injected : unit -> int
(** Faults injected since the last {!install}/{!clear}. *)

val check : device:string -> segment:string -> unit
(** The injection hook: increments the (device, segment) invocation
    counter, and raises {!Device_fault} if any installed clause
    matches this invocation. Emits a trace instant (category
    ["fault"], name ["inject:<device>"]) when tracing is enabled. *)

val check_any : device:string -> string list -> unit
(** One launch observed under several segment names at once — a fused
    segment checking its pre-fusion aliases. Every name's invocation
    counter advances exactly once (no short-circuit skew across
    retries), then {!Device_fault} is raised for the first name whose
    clause matched, if any. *)

val segment_matches : string -> string -> bool
(** [segment_matches pattern segment] — exposed for tests. *)
