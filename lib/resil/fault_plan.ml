type action = Throw | Stall of float | Corrupt

type selector =
  | Any
  | Substring of string
  | Bucket of { modulus : int; residue : int }

type count = Nth of int | From of int

type trigger = {
  site : string;
  selector : selector;
  count : count;
  action : action;
}

type t = { triggers : trigger list }

exception Injected of string

let none = { triggers = [] }
let make triggers = { triggers }
let triggers t = t.triggers

(* One site per real failure boundary: a worker job, a simulation, and
   the journal's two persistence directions. *)
let standard_sites = [ "pool.job"; "runner.run"; "journal.read"; "journal.write" ]

let action_to_string = function
  | Throw -> "crash"
  | Stall s -> Printf.sprintf "stall=%.3g" s
  | Corrupt -> "corrupt"

let random ~seed ?(stall = 0.5) () =
  let st = Random.State.make [| 0xfa17; seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let n = 1 + Random.State.int st 3 in
  let triggers =
    List.init n (fun _ ->
        let site = pick standard_sites in
        let action =
          match Random.State.int st 4 with
          | 0 -> Stall stall
          | 1 -> Corrupt
          | _ -> Throw
        in
        let modulus = 2 + Random.State.int st 3 in
        let selector = Bucket { modulus; residue = Random.State.int st modulus } in
        let count =
          if Random.State.bool st then Nth (1 + Random.State.int st 2) else From 1
        in
        { site; selector; count; action })
  in
  { triggers }

(* ---- CLI trigger specs: SITE:ACTION[@SUBSTRING][#N|+N] ---- *)

let parse_spec spec =
  let ( let* ) = Result.bind in
  let int_of s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Printf.sprintf "bad count %S in fault spec %S" s spec)
  in
  match String.index_opt spec ':' with
  | None -> Error (Printf.sprintf "fault spec %S: expected SITE:ACTION..." spec)
  | Some i ->
    let site = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    let after s j = String.sub s (j + 1) (String.length s - j - 1) in
    (* [@SUBSTR] and [#N|+N] may appear in either order; the substring
       runs from '@' to the next count marker or the end. *)
    let rest, selector =
      match String.index_opt rest '@' with
      | None -> (rest, Any)
      | Some j ->
        let tail = after rest j in
        let stop =
          match (String.index_opt tail '#', String.index_opt tail '+') with
          | Some a, Some b -> Some (min a b)
          | (Some _ as s), None | None, (Some _ as s) -> s
          | None, None -> None
        in
        (match stop with
        | None -> (String.sub rest 0 j, Substring tail)
        | Some k ->
          ( String.sub rest 0 j ^ String.sub tail k (String.length tail - k),
            Substring (String.sub tail 0 k) ))
    in
    let* rest, count =
      match (String.rindex_opt rest '#', String.rindex_opt rest '+') with
      | Some j, _ ->
        let* n = int_of (after rest j) in
        Ok (String.sub rest 0 j, Nth n)
      | None, Some j ->
        let* n = int_of (after rest j) in
        Ok (String.sub rest 0 j, From n)
      | None, None -> Ok (rest, From 1)
    in
    let* action =
      match String.index_opt rest '=' with
      | Some j when String.sub rest 0 j = "stall" -> (
        match float_of_string_opt (after rest j) with
        | Some s when s >= 0. -> Ok (Stall s)
        | _ -> Error (Printf.sprintf "bad stall duration in fault spec %S" spec))
      | Some _ -> Error (Printf.sprintf "unknown action in fault spec %S" spec)
      | None -> (
        match rest with
        | "crash" -> Ok Throw
        | "corrupt" -> Ok Corrupt
        | "stall" -> Ok (Stall 1.0)
        | other ->
          Error
            (Printf.sprintf
               "unknown action %S in fault spec %S (expected crash, corrupt or \
                stall=SECS)"
               other spec))
    in
    if List.mem site standard_sites then Ok { site; selector; count; action }
    else
      Error
        (Printf.sprintf "unknown site %S in fault spec %S (expected one of %s)"
           site spec (String.concat ", " standard_sites))

(* ---- armed state ---- *)

let armed_plan : t option Atomic.t = Atomic.make None

let mutex = Mutex.create ()
let counters : (string * string, int) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock mutex)

let arm plan =
  locked (fun () -> Hashtbl.reset counters);
  Atomic.set armed_plan (Some plan)

let disarm () = Atomic.set armed_plan None

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else
    let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
    scan 0

let selector_matches sel ident =
  match sel with
  | Any -> true
  | Substring sub -> contains ~sub ident
  | Bucket { modulus; residue } -> Hashtbl.hash ident mod modulus = residue

let bump site ident =
  locked (fun () ->
      let key = (site, ident) in
      let n = 1 + (try Hashtbl.find counters key with Not_found -> 0) in
      Hashtbl.replace counters key n;
      n)

let hits ?(ident = "") site =
  locked (fun () -> try Hashtbl.find counters (site, ident) with Not_found -> 0)

let triggered plan site ident n =
  List.find_map
    (fun tr ->
      if tr.site = site && selector_matches tr.selector ident then
        match tr.count with
        | Nth k when n = k -> Some tr.action
        | From k when n >= k -> Some tr.action
        | Nth _ | From _ -> None
      else None)
    plan.triggers

let note site ident action =
  Log.record (Log.Fault_fired { site; ident; action = action_to_string action })

(* Deterministic byte flipping: every 5th byte XORed, so short payloads
   (digests) and long ones (journal entries) are both visibly damaged
   and the damage is a pure function of the input. *)
let corrupt_bytes s =
  String.mapi
    (fun i c -> if i mod 5 = 0 then Char.chr (Char.code c lxor 0x2a) else c)
    s

let fire site ident action =
  note site ident action;
  match action with
  | Throw -> raise (Injected site)
  | Stall s -> Unix.sleepf s
  | Corrupt -> ()

let hit ?(ident = "") site =
  match Atomic.get armed_plan with
  | None -> ()
  | Some plan -> (
    let n = bump site ident in
    match triggered plan site ident n with
    | None | Some Corrupt -> ()
    | Some (Throw | Stall _) as a -> fire site ident (Option.get a))

let mangle ?(ident = "") site payload =
  match Atomic.get armed_plan with
  | None -> payload
  | Some plan -> (
    let n = bump site ident in
    match triggered plan site ident n with
    | None -> payload
    | Some Corrupt ->
      note site ident Corrupt;
      corrupt_bytes payload
    | Some ((Throw | Stall _) as a) ->
      fire site ident a;
      payload)
