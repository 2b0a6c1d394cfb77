let version = 2

type t = {
  path : string;
  sig_digest : string;
  mutex : Mutex.t;
  entries : (string, string) Hashtbl.t;  (* key -> validated payload *)
  mutable quarantined : int;
}

let path t = t.path

let bad_path path = path ^ ".bad"

let header_line sig_digest = Printf.sprintf "crisp-journal %d %s" version sig_digest

(* Entry digests cover the signature digest as well as the payload, so a
   line appended under one run signature can never be trusted by a journal
   opened under another — even if several journals interleave lines in one
   file, each load validates only its own. *)
let entry_digest sig_digest payload = Digest.to_hex (Digest.string (sig_digest ^ payload))

(* One process-wide lock for the exists-check + append pairs, so several
   live journals on one path (the daemon's server-state journal next to a
   grid journal, or an operator mistake) serialise their writes instead of
   interleaving bytes mid-line. *)
let io_mutex = Mutex.create ()

(* Append whole lines with a single write(2) on an O_APPEND descriptor:
   concurrent appenders (and a SIGKILL) can only ever leave a torn *tail*,
   which the checksum quarantine catches on the next load. *)
let append_text path text =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.of_string text in
      let n = Bytes.length b in
      let rec go off =
        if off < n then go (off + Unix.write fd b off (n - off))
      in
      go 0)

let sanitize_key key =
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' || c = '\r' then '_' else c) key

let hex_encode s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let b = Bytes.create (n / 2) in
    let rec fill i =
      if i >= n then Some (Bytes.to_string b)
      else
        match (nibble s.[i], nibble s.[i + 1]) with
        | Some hi, Some lo ->
          Bytes.set b (i / 2) (Char.chr ((hi lsl 4) lor lo));
          fill (i + 2)
        | _ -> None
    in
    fill 0

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.mutex)

let quarantine_lines t lines reason_key reason =
  (try
     let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (bad_path t.path) in
     List.iter (fun l -> output_string oc (l ^ "\n")) lines;
     close_out_noerr oc
   with Sys_error _ -> ());
  t.quarantined <- t.quarantined + 1;
  Log.record (Log.Quarantined { ident = reason_key; reason })

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let load_entry t line =
  match String.split_on_char ' ' line with
  | [ key; digest_hex; payload_hex ] -> (
    match hex_decode payload_hex with
    | None ->
      quarantine_lines t [ line ] key "journal entry payload is not hex; quarantined"
    | Some raw -> (
      (* A read that crashes loses only its entry, as a checksum failure
         does: the cell is recomputed instead of failing the whole load. *)
      match Fault_plan.mangle ~ident:key "journal.read" raw with
      | exception Fault_plan.Injected _ ->
        quarantine_lines t [ line ] key
          "journal entry read crashed; quarantined and recomputed"
      | payload ->
        if entry_digest t.sig_digest payload = digest_hex then
          Hashtbl.replace t.entries key payload
        else
          quarantine_lines t [ line ] key
            "journal entry failed its checksum; quarantined and recomputed"))
  | _ ->
    if String.trim line <> "" then
      quarantine_lines t [ line ] "journal" "unparsable journal line; quarantined"

let load ~path ~signature =
  let sig_digest = Digest.to_hex (Digest.string signature) in
  let t =
    { path;
      sig_digest;
      mutex = Mutex.create ();
      entries = Hashtbl.create 64;
      quarantined = 0 }
  in
  (if Sys.file_exists path then
     match read_lines path with
     | exception Sys_error reason ->
       Log.record (Log.Quarantined { ident = path; reason = "journal unreadable: " ^ reason });
       t.quarantined <- t.quarantined + 1
     | [] ->
       (try Sys.rename path (bad_path path) with Sys_error _ -> ());
       t.quarantined <- t.quarantined + 1;
       Log.record (Log.Quarantined { ident = path; reason = "empty journal file; moved to .bad" })
     | header :: rest ->
       if header <> header_line sig_digest then begin
         (try Sys.rename path (bad_path path) with Sys_error _ -> ());
         t.quarantined <- t.quarantined + 1;
         Log.record
           (Log.Quarantined
              { ident = path;
                reason =
                  "journal header mismatch (stale run signature or corrupt file); \
                   moved to .bad" })
       end
       else List.iter (load_entry t) rest);
  (* Eagerly materialise the header so every later [record] is a pure
     append: a file that is missing here either never existed or was just
     quarantined to .bad. *)
  Mutex.lock io_mutex;
  (try
     if not (Sys.file_exists path) then
       append_text path (header_line sig_digest ^ "\n")
   with e ->
     Mutex.unlock io_mutex;
     raise e);
  Mutex.unlock io_mutex;
  t

let record t ~key ~payload =
  let key = sanitize_key key in
  locked t (fun () ->
      (* The digest is taken on the true payload *before* the write-site
         mangle point, so an injected corruption is detectable on load. *)
      let stored = Fault_plan.mangle ~ident:key "journal.write" payload in
      Hashtbl.replace t.entries key payload;
      let line =
        Printf.sprintf "%s %s %s\n" key
          (entry_digest t.sig_digest payload)
          (hex_encode stored)
      in
      Mutex.lock io_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock io_mutex)
        (fun () ->
          (* Re-seed the header if the file vanished since load (e.g. a
             sibling journal with a different signature quarantined it):
             an appended entry under a missing or foreign header would be
             unusable at best. *)
          if not (Sys.file_exists t.path) then
            append_text t.path (header_line t.sig_digest ^ "\n");
          append_text t.path line))

let find t key =
  let key = sanitize_key key in
  locked t (fun () -> Hashtbl.find_opt t.entries key)

let size t = locked t (fun () -> Hashtbl.length t.entries)
let quarantined t = t.quarantined

(* ---- named journals ---- *)

let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let in_dir ~dir ~name ~signature =
  if name = "" then invalid_arg "Resil.Journal.in_dir: empty journal name";
  let slug = sanitize_name name in
  mkdir_p dir;
  load ~path:(Filename.concat dir (slug ^ ".journal")) ~signature
