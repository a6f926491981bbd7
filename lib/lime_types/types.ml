type mut = Mut | Immut

type ty =
  | Int
  | Float
  | Bool
  | Bit
  | Void
  | Enum of string
  | Array of ty * mut
  | Instance of string
  | Task of ty option * ty option

let rec is_value = function
  | Int | Float | Bool | Bit | Enum _ -> true
  | Array (t, Immut) -> is_value t
  | Array (_, Mut) | Instance _ | Task _ | Void -> false

let rec equal a b =
  match a, b with
  | Int, Int | Float, Float | Bool, Bool | Bit, Bit | Void, Void -> true
  | Enum x, Enum y -> String.equal x y
  | Array (x, mx), Array (y, my) -> mx = my && equal x y
  | Instance x, Instance y -> String.equal x y
  | Task (i1, o1), Task (i2, o2) ->
    Option.equal equal i1 i2 && Option.equal equal o1 o2
  | ( ( Int | Float | Bool | Bit | Void | Enum _ | Array _ | Instance _
      | Task _ ),
      _ ) ->
    false

let widens_to a b =
  equal a b || match a, b with Int, Float -> true | _ -> false

let rec pp ppf = function
  | Int -> Format.fprintf ppf "int"
  | Float -> Format.fprintf ppf "float"
  | Bool -> Format.fprintf ppf "boolean"
  | Bit -> Format.fprintf ppf "bit"
  | Void -> Format.fprintf ppf "void"
  | Enum n -> Format.fprintf ppf "%s" n
  | Array (t, Mut) -> Format.fprintf ppf "%a[]" pp t
  | Array (t, Immut) -> Format.fprintf ppf "%a[[]]" pp t
  | Instance n -> Format.fprintf ppf "%s" n
  | Task (i, o) ->
    let port ppf = function
      | None -> Format.fprintf ppf "-"
      | Some t -> pp ppf t
    in
    Format.fprintf ppf "task(%a -> %a)" port i port o

let to_string t = Format.asprintf "%a" pp t
