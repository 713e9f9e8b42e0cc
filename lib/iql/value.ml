type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Tuple of t list
  | Bag of (t * int) list

let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | Tuple _ -> 5
  | Bag _ -> 6

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Tuple xs, Tuple ys -> List.compare compare xs ys
  | Bag xs, Bag ys ->
      List.compare
        (fun (v1, n1) (v2, n2) ->
          match compare v1 v2 with 0 -> Int.compare n1 n2 | c -> c)
        xs ys
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Inner text of a string literal: escapes are rendered so that the
   lexer reads the exact string back (strings without quotes, backslashes
   or control characters render as themselves). *)
let escape_string s =
  let plain c = c <> '\'' && c <> '\\' && c <> '\n' && c <> '\r' && c <> '\t' in
  if String.for_all plain s then s
  else begin
    let buf = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        match c with
        | '\'' -> Buffer.add_string buf "\\'"
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.pf ppf "'%s'" (escape_string s)
  | Tuple vs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") pp) vs
  | Bag b ->
      let item ppf (v, n) =
        if n = 1 then pp ppf v else Fmt.pf ppf "%a*%d" pp v n
      in
      Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") item) b

let to_string v = Fmt.to_to_string pp v

let rec is_canonical = function
  | Unit | Bool _ | Int _ | Float _ | Str _ -> true
  | Tuple vs -> List.for_all is_canonical vs
  | Bag b ->
      let rec sorted = function
        | [] | [ _ ] -> true
        | (v1, _) :: ((v2, _) :: _ as rest) -> compare v1 v2 < 0 && sorted rest
      in
      List.for_all (fun (v, n) -> n >= 1 && is_canonical v) b && sorted b

module Bag = struct
  type elt = t
  type nonrec t = (t * int) list

  let empty = []
  let is_empty b = b = []

  let rec add ?(count = 1) v = function
    | [] -> if count <= 0 then [] else [ (v, count) ]
    | (w, m) :: rest as b -> (
        match compare v w with
        | 0 ->
            let n = m + count in
            if n <= 0 then rest else (w, n) :: rest
        | c when c < 0 -> if count <= 0 then b else (v, count) :: b
        | _ -> (w, m) :: add ~count v rest)

  let of_weighted_list pairs =
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) pairs
    in
    (* merge runs of equal elements, summing counts *)
    let rec merge = function
      | [] -> []
      | (v, n) :: rest ->
          let rec take n = function
            | (v', n') :: rest when compare v v' = 0 -> take (n + n') rest
            | rest -> (n, rest)
          in
          let total, rest = take n rest in
          if total <= 0 then merge rest else (v, total) :: merge rest
    in
    merge sorted

  let of_list xs = of_weighted_list (List.map (fun v -> (v, 1)) xs)

  let to_list b =
    List.concat_map (fun (v, n) -> List.init n (fun _ -> v)) b

  let singleton v = [ (v, 1) ]
  let cardinal b = List.fold_left (fun acc (_, n) -> acc + n) 0 b
  let distinct_cardinal = List.length

  let rec multiplicity v = function
    | [] -> 0
    | (w, n) :: rest -> (
        match compare v w with
        | 0 -> n
        | c when c < 0 -> 0
        | _ -> multiplicity v rest)

  let mem v b = multiplicity v b > 0

  let rec merge f a b =
    match (a, b) with
    | [], [] -> []
    | (v, n) :: ra, [] -> cons v (f n 0) (merge f ra [])
    | [], (v, n) :: rb -> cons v (f 0 n) (merge f [] rb)
    | (v1, n1) :: ra, (v2, n2) :: rb -> (
        match compare v1 v2 with
        | 0 -> cons v1 (f n1 n2) (merge f ra rb)
        | c when c < 0 -> cons v1 (f n1 0) (merge f ra b)
        | _ -> cons v2 (f 0 n2) (merge f a rb))

  and cons v n rest = if n <= 0 then rest else (v, n) :: rest

  (* canonical bags: an empty side leaves the other unchanged, so share it
     instead of copying (extent derivation unions at every pathway hop) *)
  let union a b =
    match (a, b) with [], b -> b | a, [] -> a | a, b -> merge ( + ) a b

  let monus a b = merge (fun x y -> max 0 (x - y)) a b
  let inter a b = merge min a b
  let distinct b = List.map (fun (v, _) -> (v, 1)) b

  let sub_bag a b =
    List.for_all (fun (v, n) -> n <= multiplicity v b) a

  let map f b =
    List.fold_left (fun acc (v, n) -> add ~count:n (f v) acc) empty b

  let filter p b = List.filter (fun (v, _) -> p v) b
  let fold f b init = List.fold_left (fun acc (v, n) -> f v n acc) init b
  let equal a b = a = b
end

let bag_of_list xs = Bag (Bag.of_list xs)
let tuple2 a b = Tuple [ a; b ]
let tuple3 a b c = Tuple [ a; b; c ]
