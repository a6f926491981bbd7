(* A small process-local metrics registry: named counters, gauges and
   histograms, each carrying labeled sample series.

   The runtime's ad-hoc metrics record (Runtime.Metrics) exports
   through this so every consumer — `lmc --profile`, `lmc report
   --json`, a future `lmc serve` scrape endpoint — reads one
   declaration per metric instead of three hand-maintained renderings.
   Export order is registration order, and sample order within a
   metric is first-set order, so output is deterministic. *)

type kind = Counter | Gauge | Histogram

type sample = {
  s_labels : (string * string) list;  (* sorted by key at lookup *)
  mutable s_value : float;  (* counter/gauge value; histogram sum *)
  mutable s_count : int;  (* histogram observation count *)
  s_buckets : int array;  (* per-bound counts, aligned with m_buckets *)
}

type metric = {
  m_name : string;
  m_kind : kind;
  m_help : string;
  m_buckets : float array;  (* histogram upper bounds, ascending *)
  mutable m_samples : sample list;  (* first-set order *)
}

type t = { mutable metrics : metric list (* registration order *) }

let create () = { metrics = [] }

let default_buckets =
  [| 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let register t kind ?(help = "") ?buckets name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
  match List.find_opt (fun m -> m.m_name = name) t.metrics with
  | Some m ->
    if m.m_kind <> kind then
      invalid_arg
        (Printf.sprintf "Registry: %s already registered as a %s" name
           (kind_name m.m_kind));
    m
  | None ->
    let buckets =
      match kind, buckets with
      | Histogram, Some bs ->
        let a = Array.of_list bs in
        Array.sort Float.compare a;
        if Array.length a = 0 then invalid_arg "Registry: empty bucket list";
        a
      | Histogram, None -> default_buckets
      | _, _ -> [||]
    in
    let m =
      { m_name = name; m_kind = kind; m_help = help; m_buckets = buckets;
        m_samples = [] }
    in
    t.metrics <- t.metrics @ [ m ];
    m

let counter t ?help name = register t Counter ?help name
let gauge t ?help name = register t Gauge ?help name
let histogram t ?help ?buckets name = register t Histogram ?help ?buckets name

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let sample m labels =
  let labels = normalize_labels labels in
  match List.find_opt (fun s -> s.s_labels = labels) m.m_samples with
  | Some s -> s
  | None ->
    let s =
      { s_labels = labels; s_value = 0.0; s_count = 0;
        s_buckets = Array.make (Array.length m.m_buckets) 0 }
    in
    m.m_samples <- m.m_samples @ [ s ];
    s

let inc ?(labels = []) m v =
  (match m.m_kind with
  | Histogram -> invalid_arg "Registry.inc: histogram (use observe)"
  | Counter when v < 0.0 ->
    invalid_arg "Registry.inc: negative increment on counter"
  | Counter | Gauge -> ());
  let s = sample m labels in
  s.s_value <- s.s_value +. v

let set ?(labels = []) m v =
  (match m.m_kind with
  | Histogram -> invalid_arg "Registry.set: histogram (use observe)"
  | Counter | Gauge -> ());
  let s = sample m labels in
  s.s_value <- v

let observe ?(labels = []) m v =
  (match m.m_kind with
  | Histogram -> ()
  | Counter | Gauge -> invalid_arg "Registry.observe: not a histogram");
  let s = sample m labels in
  s.s_count <- s.s_count + 1;
  s.s_value <- s.s_value +. v;
  (* per-bucket counts: only the first bucket that fits; the exporters
     prefix-sum into the cumulative form OpenMetrics wants *)
  let n = Array.length m.m_buckets in
  let rec place i =
    if i < n then
      if v <= m.m_buckets.(i) then s.s_buckets.(i) <- s.s_buckets.(i) + 1
      else place (i + 1)
  in
  place 0

let value ?(labels = []) m =
  let labels = normalize_labels labels in
  Option.map
    (fun s -> s.s_value)
    (List.find_opt (fun s -> s.s_labels = labels) m.m_samples)

(* --- export ------------------------------------------------------------ *)

(* Integral values print without a fraction so counters read as counts;
   everything else uses %g (shortest round-trippable-enough form). *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_set labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) labels)
    ^ "}"

(* Cumulative bucket counts, as OpenMetrics requires (`le` buckets each
   include everything below them, and +Inf equals the total count). *)
let cumulative s =
  let acc = ref 0 in
  Array.map
    (fun c ->
      acc := !acc + c;
      !acc)
    s.s_buckets

let to_text t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun m ->
      if m.m_help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" m.m_name (escape m.m_help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" m.m_name (kind_name m.m_kind));
      List.iter
        (fun s ->
          match m.m_kind with
          | Counter | Gauge ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" m.m_name (label_set s.s_labels)
                 (number s.s_value))
          | Histogram ->
            let cum = cumulative s in
            Array.iteri
              (fun i le ->
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" m.m_name
                     (label_set (s.s_labels @ [ "le", number le ]))
                     cum.(i)))
              m.m_buckets;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" m.m_name
                 (label_set (s.s_labels @ [ "le", "+Inf" ]))
                 s.s_count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" m.m_name (label_set s.s_labels)
                 (number s.s_value));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" m.m_name
                 (label_set s.s_labels) s.s_count))
        m.m_samples)
    t.metrics;
  Buffer.contents buf

let json_str s = "\"" ^ escape s ^ "\""

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) labels)
  ^ "}"

let sample_json m s =
  match m.m_kind with
  | Counter | Gauge ->
    Printf.sprintf "{\"labels\":%s,\"value\":%s}" (labels_json s.s_labels)
      (number s.s_value)
  | Histogram ->
    let cum = cumulative s in
    let buckets =
      String.concat ","
        (Array.to_list
           (Array.mapi
              (fun i le ->
                Printf.sprintf "{\"le\":%s,\"count\":%d}"
                  (json_str (number le))
                  cum.(i))
              m.m_buckets)
        @ [ Printf.sprintf "{\"le\":\"+Inf\",\"count\":%d}" s.s_count ])
    in
    Printf.sprintf
      "{\"labels\":%s,\"count\":%d,\"sum\":%s,\"buckets\":[%s]}"
      (labels_json s.s_labels) s.s_count (number s.s_value) buckets

let to_json t =
  "["
  ^ String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf
             "{\"name\":%s,\"type\":%s,\"help\":%s,\"samples\":[%s]}"
             (json_str m.m_name)
             (json_str (kind_name m.m_kind))
             (json_str m.m_help)
             (String.concat "," (List.map (sample_json m) m.m_samples)))
         t.metrics)
  ^ "]"
