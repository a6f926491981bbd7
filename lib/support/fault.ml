(* Deterministic device-fault injection.

   The runtime's safety story is that device artifacts are an
   optimization, never a requirement: the frontend lowers the whole
   program to bytecode, so every task always has a CPU implementation.
   To test that story end to end, this module lets a run declare a
   *fault schedule* — which device models fail, on which segments, on
   which invocations — and the device models call {!check} at the top
   of every launch. Decisions are pure functions of (schedule seed,
   device, segment, invocation count), driven by the same xorshift
   generator as the workload inputs ({!Rng}), so a seeded run injects
   the identical fault sequence every time. *)

type info = {
  f_device : string;
  f_segment : string;
  f_invocation : int;
  f_reason : string;
}

exception Device_fault of info

type when_ =
  | Always
  | First_n of int
  | At of int list
  | Prob of float

type clause = { c_device : string; c_segment : string; c_when : when_ }
type schedule = { seed : int64; clauses : clause list }

let devices = [ "gpu"; "fpga"; "native"; "wire"; "*" ]

(* --- spec parsing ------------------------------------------------------ *)

(* SPEC    := CLAUSE (',' CLAUSE)* [',' 'seed=' INT]
   CLAUSE  := DEVICE ':' SEGMENT [':' WHEN]
   DEVICE  := 'gpu' | 'fpga' | 'native' | 'wire' | '*'
   SEGMENT := literal uid | '*' | prefix '*'
   WHEN    := 'always' | 'n=' INT | 'at=' INT ('/' INT)* | 'p=' FLOAT *)

let parse_when s : (when_, string) result =
  if s = "always" then Ok Always
  else
    match String.index_opt s '=' with
    | None -> Error (Printf.sprintf "unknown fault trigger %S" s)
    | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match key with
      | "n" -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok (First_n n)
        | _ -> Error (Printf.sprintf "bad fault count %S" v))
      | "at" -> (
        let parts = String.split_on_char '/' v in
        match
          List.map
            (fun p -> match int_of_string_opt p with Some i when i >= 0 -> i | _ -> -1)
            parts
        with
        | xs when List.for_all (fun i -> i >= 0) xs && xs <> [] -> Ok (At xs)
        | _ -> Error (Printf.sprintf "bad invocation list %S" v))
      | "p" -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
        | _ -> Error (Printf.sprintf "bad fault probability %S" v))
      | _ -> Error (Printf.sprintf "unknown fault trigger %S" s))

let parse_clause s : (clause, string) result =
  match String.split_on_char ':' s with
  | ([ _; "" ] | [ _; ""; _ ]) ->
    Error (Printf.sprintf "empty segment pattern in clause %S" s)
  | [ device; segment ] | [ device; segment; "" ] ->
    if List.mem device devices then
      Ok { c_device = device; c_segment = segment; c_when = Always }
    else Error (Printf.sprintf "unknown device %S" device)
  | [ device; segment; w ] -> (
    if not (List.mem device devices) then
      Error (Printf.sprintf "unknown device %S" device)
    else
      match parse_when w with
      | Ok when_ -> Ok { c_device = device; c_segment = segment; c_when = when_ }
      | Error e -> Error e)
  | _ -> Error (Printf.sprintf "malformed fault clause %S (want DEVICE:SEGMENT[:WHEN])" s)

let parse_spec spec : (schedule, string) result =
  let parts =
    List.filter (fun s -> s <> "") (String.split_on_char ',' (String.trim spec))
  in
  if parts = [] then Error "empty fault spec"
  else
    let rec go seed clauses = function
      | [] ->
        if clauses = [] then Error "fault spec has no clauses"
        else Ok { seed; clauses = List.rev clauses }
      | part :: rest ->
        if String.length part > 5 && String.sub part 0 5 = "seed=" then
          match
            Int64.of_string_opt (String.sub part 5 (String.length part - 5))
          with
          | Some s -> go s clauses rest
          | None -> Error (Printf.sprintf "bad seed in %S" part)
        else (
          match parse_clause part with
          | Ok c -> go seed (c :: clauses) rest
          | Error e -> Error e)
    in
    go 0x5EEDL [] parts

let describe_when = function
  | Always -> "always"
  | First_n n -> Printf.sprintf "n=%d" n
  | At xs -> "at=" ^ String.concat "/" (List.map string_of_int xs)
  | Prob p -> Printf.sprintf "p=%g" p

let describe (s : schedule) =
  String.concat ","
    (List.map
       (fun c ->
         Printf.sprintf "%s:%s:%s" c.c_device c.c_segment (describe_when c.c_when))
       s.clauses)
  ^ Printf.sprintf ",seed=%Ld" s.seed

(* --- the process-wide schedule ----------------------------------------- *)

let current : schedule option ref = ref None
let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let injected_count = ref 0

let install s =
  current := Some s;
  Hashtbl.reset counters;
  injected_count := 0

let clear () =
  current := None;
  Hashtbl.reset counters;
  injected_count := 0

let enabled () = !current <> None
let injected () = !injected_count

let without f =
  match !current with
  | None -> f ()
  | Some sched ->
    current := None;
    Fun.protect ~finally:(fun () -> current := Some sched) f

(* --- the decision ------------------------------------------------------ *)

let segment_matches pat seg =
  pat = "*" || pat = seg
  || String.length pat > 0
     && pat.[String.length pat - 1] = '*'
     &&
     let p = String.sub pat 0 (String.length pat - 1) in
     String.length seg >= String.length p
     && String.sub seg 0 (String.length p) = p

(* A probabilistic clause draws one uniform value from an Rng seeded by
   (schedule seed, device, segment, invocation): deterministic per
   decision point, uncorrelated across points. *)
let prob_draw (sched : schedule) ~device ~segment ~invocation =
  let h = Hashtbl.hash (device, segment, invocation) in
  let rng = Rng.create ~seed:(Int64.logxor sched.seed (Int64.of_int (h + 1))) () in
  ignore (Rng.next rng);
  (* one warm-up step decorrelates the similar seeds *)
  Rng.float rng

let decide sched ~device ~segment ~invocation (c : clause) =
  match c.c_when with
  | Always -> true
  | First_n n -> invocation < n
  | At xs -> List.mem invocation xs
  | Prob p -> prob_draw sched ~device ~segment ~invocation < p

(* Advance [segment]'s invocation counter and report the invocation
   number if the schedule says this launch faults. Split from the
   raise so a fused launch can consult several alias names without the
   first hit short-circuiting the others' counters. *)
let decide_one ~device ~segment : int option =
  match !current with
  | None -> None
  | Some sched ->
    let key = device ^ "\x00" ^ segment in
    let invocation = Option.value (Hashtbl.find_opt counters key) ~default:0 in
    Hashtbl.replace counters key (invocation + 1);
    let hit =
      List.exists
        (fun c ->
          (c.c_device = "*" || c.c_device = device)
          && segment_matches c.c_segment segment
          && decide sched ~device ~segment ~invocation c)
        sched.clauses
    in
    if hit then Some invocation else None

let inject ~device ~segment ~invocation =
  incr injected_count;
  if Trace.enabled () then
    Trace.instant ~cat:"fault"
      ~args:
        [
          "device", Trace.Str device;
          "segment", Trace.Str segment;
          "invocation", Trace.Int invocation;
        ]
      ("inject:" ^ device);
  raise
    (Device_fault
       {
         f_device = device;
         f_segment = segment;
         f_invocation = invocation;
         f_reason =
           Printf.sprintf "injected fault on %s:%s (invocation %d)" device
             segment invocation;
       })

let check ~device ~segment =
  match decide_one ~device ~segment with
  | Some invocation -> inject ~device ~segment ~invocation
  | None -> ()

let check_any ~device segments =
  let hits =
    List.filter_map
      (fun segment ->
        Option.map (fun inv -> (segment, inv)) (decide_one ~device ~segment))
      segments
  in
  match hits with
  | (segment, invocation) :: _ -> inject ~device ~segment ~invocation
  | [] -> ()
