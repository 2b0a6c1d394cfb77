type action = Throw | Stall of float | Corrupt | Truncate

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

let make triggers = { triggers }
let triggers t = t.triggers

(* One site per real failure boundary: a worker job, a simulation, the
   journal's two persistence directions, and the farm socket's two. *)
let compute_sites = [ "pool.job"; "runner.run"; "journal.read"; "journal.write" ]
let wire_sites = [ "wire.up"; "wire.down" ]

let action_to_string = function
  | Throw -> "crash"
  | Stall s -> Printf.sprintf "stall=%.3g" s
  | Corrupt -> "corrupt"
  | Truncate -> "truncate"

let trigger_to_string tr =
  let selector =
    match tr.selector with
    | Any -> ""
    | Substring s -> "@" ^ s
    | Bucket { modulus; residue } ->
      Printf.sprintf "@bucket(%d mod %d)" residue modulus
  in
  let count =
    match tr.count with
    | Nth n -> Printf.sprintf "#%d" n
    | From n -> Printf.sprintf "+%d" n
  in
  Printf.sprintf "%s:%s%s%s" tr.site (action_to_string tr.action) selector count

let random ~seed ?(stall = 0.5) () =
  let st = Random.State.make [| 0xfa17; seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let n = 1 + Random.State.int st 3 in
  let triggers =
    List.init n (fun _ ->
        let site = pick compute_sites in
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

(* Its own seed and draw sequence, independent of [random]'s, so
   neither family's seeded plans move when the other's do; every
   trigger is [Nth], so a retrying client always converges — the fault
   supply is finite by construction. *)
let random_wire ~seed =
  let st = Random.State.make [| 0xc4a05; seed |] in
  let n = 1 + Random.State.int st 2 in
  let triggers =
    List.init n (fun _ ->
        let action =
          match Random.State.int st 5 with
          | 0 -> Stall 0.05
          | 1 -> Stall 0.2
          | 2 -> Truncate
          | 3 -> Corrupt
          | _ -> Throw
        in
        { site = "wire.down";
          selector = Any;
          count = Nth (1 + Random.State.int st 6);
          action })
  in
  { triggers }

(* ---- CLI trigger specs: SITE:ACTION[@SUBSTRING][#N|+N] ---- *)

let parse_spec ~sites spec =
  let ( let* ) = Result.bind in
  let int_of s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Printf.sprintf "bad count %S in fault spec %S" s spec)
  in
  match String.index_opt spec ':' with
  | None -> Error (Printf.sprintf "fault spec %S: expected SITE:ACTION..." spec)
  | Some i when not (List.mem (String.sub spec 0 i) sites) ->
    Error
      (Printf.sprintf "unknown site %S in fault spec %S (expected one of %s)"
         (String.sub spec 0 i) spec (String.concat ", " sites))
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
        | "truncate" -> Ok Truncate
        | "stall" -> Ok (Stall 1.0)
        | other ->
          Error
            (Printf.sprintf
               "unknown action %S in fault spec %S (expected crash, corrupt, \
                truncate or stall=SECS)"
               other spec))
    in
    if selector <> Any && List.mem site wire_sites then
      Error
        (Printf.sprintf
           "fault spec %S: wire frames carry no ident, so @SUBSTR could never \
            match"
           spec)
    else Ok { site; selector; count; action }

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

let fires plan ?(ident = "") site n =
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
   and the damage is a pure function of the input.  Byte 0 is always
   flipped: on the wire that is the top byte of the length prefix, so
   the declared length blows [Farm_frame.max_frame_bytes] and the peer
   diagnoses the frame instead of waiting for bytes that never come. *)
let damage action s =
  match action with
  | Corrupt ->
    String.mapi
      (fun i c -> if i mod 5 = 0 then Char.chr (Char.code c lxor 0x2a) else c)
      s
  | Truncate -> String.sub s 0 (String.length s / 2)
  | Throw | Stall _ -> s

let fire site ident action =
  note site ident action;
  match action with
  | Throw -> raise (Injected site)
  | Stall s -> Unix.sleepf s
  | Corrupt | Truncate -> ()

let hit ?(ident = "") site =
  match Atomic.get armed_plan with
  | None -> ()
  | Some plan -> (
    let n = bump site ident in
    match fires plan ~ident site n with
    | None | Some (Corrupt | Truncate) -> ()
    | Some ((Throw | Stall _) as a) -> fire site ident a)

let mangle ?(ident = "") site payload =
  match Atomic.get armed_plan with
  | None -> payload
  | Some plan -> (
    match fires plan ~ident site (bump site ident) with
    | None -> payload
    | Some a ->
      fire site ident a;
      damage a payload)
