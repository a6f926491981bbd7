type t = { base : string; stamp : int }

let counter = ref 0

let fresh base =
  incr counter;
  { base; stamp = !counter }

let name t = Printf.sprintf "%s#%d" t.base t.stamp

let base t = t.base

let compare a b =
  let c = Int.compare a.stamp b.stamp in
  if c <> 0 then c else String.compare a.base b.base

let equal a b = a.stamp = b.stamp && String.equal a.base b.base

let hash t = Hashtbl.hash (t.base, t.stamp)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hash = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Tbl = Hashtbl.Make (Hash)
