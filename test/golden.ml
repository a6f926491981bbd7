(* Shared by the golden-output executables (simt_golden, vm_golden):
   an exact, canonical rendering of values and its digest. *)

module V = Wire.Value

(* A canonical, exact rendering of a value: floats in hex. *)
let rec canon b (v : V.t) =
  let arr f a =
    Buffer.add_char b '[';
    Array.iter (fun x -> f x; Buffer.add_char b ',') a;
    Buffer.add_char b ']'
  in
  match v with
  | V.Float f -> Printf.bprintf b "%h" f
  | V.Float_array a -> arr (Printf.bprintf b "%h") a
  | V.Array a -> arr (canon b) a
  | V.Tuple vs -> arr (canon b) (Array.of_list vs)
  | v -> Buffer.add_string b (V.to_string v)

let digest v =
  let b = Buffer.create 1024 in
  canon b v;
  Digest.to_hex (Digest.string (Buffer.contents b))
