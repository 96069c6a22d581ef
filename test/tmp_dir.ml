(* Temporary directories for the tests: made under the system temp
   directory, removed with everything in them. *)

(* remove [path] and, when it is a directory, everything under it; a
   symbolic link is removed, never followed, and what cannot be removed
   stays *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR -> (
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* [f] on a fresh path under the temp directory (not created), which is
   removed afterwards, however [f] exits *)
let with_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Fun.protect (fun () -> f dir) ~finally:(fun () -> rm_rf dir)
