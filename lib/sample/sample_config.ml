type t = {
  unit_len : int;
  warmup_len : int;
  units : int;
}

let default = { unit_len = 1_000; warmup_len = 2_000; units = 30 }

let validate t =
  if t.unit_len <= 0 then Error "sample unit length must be positive"
  else if t.warmup_len < 0 then Error "sample warmup length must be non-negative"
  else if t.units <= 0 then Error "sample unit count must be positive"
  else Ok ()

let to_string t =
  Printf.sprintf "units=%d,unit=%d,warmup=%d" t.units t.unit_len t.warmup_len

let of_string s =
  let s = String.trim s in
  if s = "" then Error "empty sample config"
  else begin
    let parse_field acc field =
      match acc with
      | Error _ as e -> e
      | Ok t -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "sample config field %S is not key=value" field)
        | Some i -> (
          let key = String.sub field 0 i in
          let value = String.sub field (i + 1) (String.length field - i - 1) in
          let int_of () =
            match int_of_string_opt value with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "sample config %s=%S is not an integer" key value)
          in
          match key with
          | "units" -> Result.map (fun v -> { t with units = v }) (int_of ())
          | "unit" -> Result.map (fun v -> { t with unit_len = v }) (int_of ())
          | "warmup" -> Result.map (fun v -> { t with warmup_len = v }) (int_of ())
          | _ -> Error (Printf.sprintf "unknown sample config key %S" key)))
    in
    let fields = String.split_on_char ',' s in
    match List.fold_left parse_field (Ok default) fields with
    | Error _ as e -> e
    | Ok t -> (
      match validate t with
      | Ok () -> Ok t
      | Error _ as e -> e)
  end
