(** Jobs, tenants and job files for the multi-tenant engine (see
    [docs/SERVE.md]).

    A {e job} is one request to run a workload of the benchmark suite
    ([lib/workloads]) over a stream of a given size, submitted by a
    {e tenant} at a virtual arrival time. Tenants carry a fairness
    weight (their share of contended device time under weighted
    deficit round-robin) and an admission quota (the maximum number of
    their jobs allowed in the system at once; arrivals beyond it are
    rejected, not queued). A {e load} is the full scripted input to
    one [lmc serve] run: the tenant table plus the arrival schedule.

    Everything is deterministic — arrival times are modeled
    nanoseconds on the same virtual clock the runtime's cost models
    use, and the synthetic generator draws its jitter from the
    workload suite's xorshift generator — so a load replays
    bit-identically. *)

type deadline = Interactive | Batch

type tenant = {
  t_name : string;
  t_weight : int;  (** WDRR share of contended device time, >= 1 *)
  t_quota : int;  (** max outstanding (admitted, uncompleted) jobs *)
}

type spec = {
  j_id : int;  (** dense, assigned in submission order *)
  j_tenant : string;
  j_workload : string;  (** a [Workloads.find] name *)
  j_size : int;  (** stream length passed to the workload *)
  j_arrival_ns : float;  (** virtual arrival time *)
  j_class : deadline;
}

type load = { l_tenants : tenant list; l_jobs : spec list (** by arrival *) }

exception Parse_error of string

val parse : string -> load
(** Parse a job file. The grammar, one directive per line ([#]
    comments and blank lines ignored):

    {v
    tenant NAME weight=W [quota=Q]
    job TENANT WORKLOAD [size=N] [at=NS] [count=K] [every=NS] [class=interactive|batch]
    v}

    [count]/[every] expand one directive into [K] arrivals spaced
    [every] apart starting at [at]. Defaults: [size] the workload's
    default, [at] 0, [count] 1, [every] 0, [class] batch, [quota]
    unlimited. @raise Parse_error with a line number on bad input. *)

val parse_file : string -> load
(** [parse] on a file's contents. @raise Parse_error (also for an
    unreadable file). *)

val synthetic :
  ?quota:int ->
  ?workloads:string list ->
  ?size:int ->
  ?jobs_per_tenant:int ->
  ?interarrival_ns:float ->
  ?seed:int ->
  (string * int) list ->
  load
(** [synthetic tenants] builds an open-loop arrival schedule: each
    tenant of [(name, weight)] submits [jobs_per_tenant] (default 8)
    jobs cycling through [workloads] (default ["saxpy"]), sized [size]
    (default 256), with exponential-ish interarrival gaps — a
    deterministic jitter in [0.5x, 1.5x) of [interarrival_ns] (default
    50_000) drawn from {!Workloads.Rng} keyed by [seed] and the tenant
    index, so tenants' schedules differ but replay identically. *)

val validate : load -> (unit, string) result
(** Check tenant-table well-formedness (unique names, positive weights
    and quotas) and that every job names a known tenant and a known
    workload with a positive size. *)

val render : load -> string
(** The load back in job-file syntax (one [job] line per arrival). *)
