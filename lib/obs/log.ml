type level = Quiet | Normal | Verbose

let int_of_level = function Quiet -> 0 | Normal -> 1 | Verbose -> 2

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "quiet" | "q" | "0" | "error" -> Some Quiet
  | "normal" | "n" | "1" | "info" -> Some Normal
  | "verbose" | "v" | "2" | "debug" -> Some Verbose
  | _ -> None

let env_level () =
  match Sys.getenv_opt "DFS_LOG" with
  | None -> None
  | Some s -> level_of_string s

let current = ref (Option.value ~default:Normal (env_level ()))

let set_level l =
  (* DFS_LOG wins over programmatic defaults (CLI flags), so a user can
     always crank verbosity on a quiet script and vice versa. *)
  match env_level () with Some e -> current := e | None -> current := l

let enabled l = int_of_level l <= int_of_level !current

(* Serialize writes so lines from parallel workers never interleave
   mid-line.  (Ordering across domains is still scheduler-dependent;
   only stdout table output is required to be deterministic.) *)
let emit_lock = Mutex.create ()

let emit s =
  Mutex.lock emit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock emit_lock)
    (fun () -> Printf.eprintf "[dfs] %s\n%!" s)

let error fmt = Printf.ksprintf emit fmt

let warn fmt =
  Printf.ksprintf
    (fun s -> if enabled Normal then emit ("warning: " ^ s))
    fmt

let info fmt =
  Printf.ksprintf (fun s -> if enabled Normal then emit s) fmt

let debug fmt =
  Printf.ksprintf (fun s -> if enabled Verbose then emit s) fmt
