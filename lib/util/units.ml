let kib = 1024

let mib = 1024 * 1024

let block_size = 4 * kib

let blocks_of_bytes bytes =
  if bytes < 0 then
    invalid_arg
      (Printf.sprintf "Units.blocks_of_bytes: negative byte count %d" bytes);
  (bytes + block_size - 1) / block_size

let minutes x = x *. 60.0

let hours x = x *. 3600.0
