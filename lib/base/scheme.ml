type t = { language : string; construct : string; args : string list }

let make ?(language = "sql") ?construct args =
  if args = [] then invalid_arg "Scheme.make: empty argument list";
  let construct =
    match construct with
    | Some c -> c
    | None -> ( match args with [ _ ] -> "table" | _ -> "column")
  in
  { language; construct; args }

let table t = make ~construct:"table" [ t ]
let column t c = make ~construct:"column" [ t; c ]
let language s = s.language
let construct s = s.construct
let args s = s.args

let compare a b =
  match String.compare a.language b.language with
  | 0 -> (
      match String.compare a.construct b.construct with
      | 0 -> List.compare String.compare a.args b.args
      | n -> n)
  | n -> n

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let pp_args ppf args = Fmt.(list ~sep:(any ",") string) ppf args

let pp_full ppf s =
  Fmt.pf ppf "<<%s,%s,%a>>" s.language s.construct pp_args s.args

let pp ppf s =
  if s.language = "sql" && (s.construct = "table" || s.construct = "column")
  then Fmt.pf ppf "<<%a>>" pp_args s.args
  else pp_full ppf s

let to_string s = Fmt.to_to_string pp s

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space str i stop =
  if i < stop && is_space str.[i] then skip_space str (i + 1) stop else i

let rec skip_space_back str start j =
  if j > start && is_space str.[j - 1] then skip_space_back str start (j - 1)
  else j

(* Scans [str] by index: only the trimmed components are copied. *)
let of_string str =
  let lo = skip_space str 0 (String.length str) in
  let hi = skip_space_back str lo (String.length str) in
  let fail what =
    Error (Printf.sprintf "%s: %S" what (String.sub str lo (hi - lo)))
  in
  if
    hi - lo < 5
    || str.[lo] <> '<'
    || str.[lo + 1] <> '<'
    || str.[hi - 2] <> '>'
    || str.[hi - 1] <> '>'
  then fail "not a scheme"
  else
    let first = lo + 2 in
    (* components right to left, so the list is built in order: [i]
       walks back from [stop], the end of the current component, to the
       comma or the [<<] before it *)
    let rec split stop i parts blank =
      if i >= first && str.[i] <> ',' then split stop (i - 1) parts blank
      else
        let a = skip_space str (i + 1) stop in
        let b = skip_space_back str a stop in
        let parts = String.sub str a (b - a) :: parts in
        let blank = blank || a = b in
        if i >= first then split i (i - 1) parts blank else (parts, blank)
    in
    match split (hi - 2) (hi - 3) [] false with
    | [ "" ], _ -> fail "empty scheme"
    | _, true -> fail "blank component in scheme"
    | [ t ], _ -> Ok (table t)
    | [ t; c ], _ -> Ok (column t c)
    | language :: construct :: args, _ -> Ok { language; construct; args }
    | [], _ -> fail "malformed scheme"

let rename n s =
  match List.rev s.args with
  | [] -> s
  | _ :: rest -> { s with args = List.rev (n :: rest) }

let prefix p s =
  match s.args with
  | [] -> s
  | a :: rest -> { s with args = (p ^ ":" ^ a) :: rest }

let unprefix s =
  match s.args with
  | [] -> None
  | a :: rest -> (
      match String.index_opt a ':' with
      | None -> None
      | Some i ->
          let p = String.sub a 0 i in
          let base = String.sub a (i + 1) (String.length a - i - 1) in
          Some (p, { s with args = base :: rest }))

let is_prefixed s = unprefix s <> None

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
